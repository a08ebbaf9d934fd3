//! Analytical-model telemetry: fixed-point solver convergence traces,
//! per-station blocking/residence breakdowns, and the escalation-ladder
//! attempts and outcome tag of a saturation-aware solve.
//!
//! The queueing solver threads an optional `&mut SolverTrace` through its
//! iteration loop; the framework fills a [`ModelTelemetry`] when asked to
//! solve with tracing. All of it is plain data: the outcome tag is the
//! solving layer's own label string, so this leaf crate names no type
//! from above it, and rendering and export live with the consumers.

/// Outcome of an Aitken Δ² acceleration attempt within one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AitkenStep {
    /// No acceleration was attempted at this evaluation.
    NotAttempted,
    /// The extrapolated candidate verified better and was accepted.
    Accepted,
    /// The candidate verified worse (or was non-finite) and was discarded.
    Rejected,
}

impl AitkenStep {
    /// Stable snake_case label used by renderers.
    pub fn label(self) -> &'static str {
        match self {
            AitkenStep::NotAttempted => "-",
            AitkenStep::Accepted => "accepted",
            AitkenStep::Rejected => "rejected",
        }
    }
}

/// One solver evaluation: the raw (undamped) residual, the damping
/// factor in force, and whether an Aitken step was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationSample {
    /// Map-evaluation count at the time of the sample (1-based).
    pub evaluation: usize,
    /// Raw residual `max_i |f(x)_i − x_i|` at this evaluation.
    pub residual: f64,
    /// Damping factor θ in force (fixed for the plain solver, adaptive
    /// for the accelerated one).
    pub damping: f64,
    /// Aitken Δ² outcome at this evaluation.
    pub aitken: AitkenStep,
}

/// Convergence trace of one fixed-point solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverTrace {
    /// Per-evaluation samples, in order.
    pub samples: Vec<IterationSample>,
    /// Whether the solve met its tolerance.
    pub converged: bool,
    /// Residual at exit.
    pub final_residual: f64,
}

impl SolverTrace {
    /// An empty trace.
    pub fn new() -> Self {
        SolverTrace::default()
    }

    /// Append a sample.
    #[inline]
    pub fn record(&mut self, evaluation: usize, residual: f64, damping: f64, aitken: AitkenStep) {
        self.samples.push(IterationSample {
            evaluation,
            residual,
            damping,
            aitken,
        });
    }

    /// Mark the trace finished.
    pub fn finish(&mut self, converged: bool, final_residual: f64) {
        self.converged = converged;
        self.final_residual = final_residual;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded (e.g. the network was a DAG and
    /// no fixed-point iteration ran).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of accepted Aitken steps.
    pub fn aitken_accepts(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.aitken == AitkenStep::Accepted)
            .count()
    }

    /// Number of rejected Aitken steps.
    pub fn aitken_rejects(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.aitken == AitkenStep::Rejected)
            .count()
    }
}

/// Per-station (per traffic class) solution breakdown from the modeling
/// framework: where a worm's residence time at this station comes from
/// and how blocked its inbound forwards are.
#[derive(Debug, Clone, PartialEq)]
pub struct StationBreakdown {
    /// Class name as given to the framework spec.
    pub name: String,
    /// Arrival rate λ at this station (worms/cycle).
    pub lambda: f64,
    /// Number of servers (bundle width) at the station.
    pub servers: u32,
    /// Effective service time x̄ from the solved fixed point (cycles).
    pub service_time: f64,
    /// Queueing wait W at this station (cycles).
    pub waiting_time: f64,
    /// Lane-slot residence time (equals x̄ when L = 1).
    pub residence: f64,
    /// Per-server utilization λ·x̄ (per-channel arrival rate × service
    /// time; the station's combined rate m·λ over its m servers).
    pub utilization: f64,
    /// Traffic-weighted mean of Eq. 10 blocking factors over the
    /// forwards *into* this station (1.0 when nothing forwards here or
    /// blocking is disabled).
    pub inbound_blocking: f64,
}

/// One attempt of the escalation ladder (plain → damped →
/// accelerated-with-restart) a saturation-aware solve climbed through.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderSample {
    /// Label of the rung tried (`"plain"`, `"damped"`, `"accel_restart"`).
    pub rung: String,
    /// Whether this rung produced a converged solution.
    pub succeeded: bool,
    /// Short description of the attempt's result: `"converged"` or the
    /// error's display text.
    pub detail: String,
}

/// Everything the framework can tell about one solve: the solver's
/// convergence trace plus the per-station breakdown of the solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelTelemetry {
    /// Fixed-point convergence trace (empty for DAG networks). When the
    /// escalation ladder ran, this is the trace of the *final* attempt.
    pub solver: SolverTrace,
    /// Per-class breakdown rows, in spec order.
    pub stations: Vec<StationBreakdown>,
    /// Saturation-aware outcome tag, `SolveOutcome::label()` of the
    /// outcome-returning solve entry points: `"converged"`, `"saturated"`
    /// or `"no_convergence"` (`None` for the plain error-returning ones).
    pub outcome: Option<&'static str>,
    /// Escalation-ladder attempts in order, one entry per rung tried
    /// (empty when the plain error-returning entry points ran).
    pub ladder: Vec<LadderSample>,
}

impl ModelTelemetry {
    /// Clears every field back to the default state, so a telemetry
    /// value can be reused across solves without stale data leaking
    /// between them.
    pub fn reset(&mut self) {
        self.solver = SolverTrace::new();
        self.stations.clear();
        self.outcome = None;
        self.ladder.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_counts() {
        let mut tr = SolverTrace::new();
        assert!(tr.is_empty());
        tr.record(1, 0.5, 1.0, AitkenStep::NotAttempted);
        tr.record(2, 0.1, 0.5, AitkenStep::Accepted);
        tr.record(3, 0.2, 0.5, AitkenStep::Rejected);
        tr.record(4, 0.01, 0.625, AitkenStep::Accepted);
        tr.finish(true, 0.01);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.aitken_accepts(), 2);
        assert_eq!(tr.aitken_rejects(), 1);
        assert!(tr.converged);
        assert_eq!(tr.final_residual, 0.01);
        assert_eq!(tr.samples[1].damping, 0.5);
    }

    #[test]
    fn aitken_labels() {
        assert_eq!(AitkenStep::Accepted.label(), "accepted");
        assert_eq!(AitkenStep::Rejected.label(), "rejected");
        assert_eq!(AitkenStep::NotAttempted.label(), "-");
    }

    #[test]
    fn telemetry_reset_clears_every_field() {
        let mut tel = ModelTelemetry::default();
        tel.solver.record(1, 0.5, 0.5, AitkenStep::NotAttempted);
        tel.outcome = Some("saturated");
        tel.ladder.push(LadderSample {
            rung: "plain".into(),
            succeeded: false,
            detail: "diverged".into(),
        });
        tel.reset();
        assert_eq!(tel, ModelTelemetry::default());
    }
}
