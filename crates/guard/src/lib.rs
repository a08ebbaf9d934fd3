//! Saturation-aware solving layer for the wormhole fixed-point model.
//!
//! The Greenberg–Guan model is only defined below the saturation knee: past
//! it, the §2 fixed point has no finite solution and a naive solver either
//! diverges, burns its whole iteration budget, or (worst) panics in a
//! downstream kernel fed `ρ ≥ 1`. This crate makes every solve *total over
//! load ∈ [0, ∞)* by layering three mechanisms on top of the raw solver in
//! `wormsim-queueing`:
//!
//! 1. **Typed outcomes** — [`SolveOutcome`] tags a solve as `Converged`,
//!    `Saturated` (the load is past the knee; the model has no answer and
//!    never will), or `NoConvergence` (the budget expired without a
//!    saturation diagnosis — rare, reported rather than retried forever).
//! 2. **An escalation ladder** — [`escalate`] retries a failed solve
//!    through [`Rung::Plain`] → [`Rung::Damped`] → [`Rung::AcceleratedRestart`]
//!    before conceding. A transient failure at one rung (non-convergence,
//!    detected divergence that heavier damping or Aitken acceleration can
//!    rescue) moves to the next; a definitive failure (`ρ ≥ 1`, invalid
//!    spec) aborts immediately.
//! 3. **Knee bracketing** — [`bracket_knee`] finds the boundary between
//!    the feasible and infeasible load regions by geometric growth plus
//!    bisection, so callers can *ask* where the model stops being valid
//!    instead of discovering it by panic.
//!
//! The crate is deliberately generic: it never names `NetworkSpec` (which
//! lives above it in the dependency order). `wormsim-core` wires these
//! primitives into `NetworkSpec::solve_outcome` (and through it
//! `StationModel::latency_outcome`) and `NetworkSpec::find_knee`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;

// ---------------------------------------------------------------------------
// Typed outcomes
// ---------------------------------------------------------------------------

/// The result of a saturation-aware model solve: total over every load.
///
/// `Converged` carries the solution; the two failure arms are *data*, not
/// errors — a sweep records them and moves on. Spec-construction problems
/// (malformed graphs, negative rates) remain ordinary `Err`s in the APIs
/// that produce a `SolveOutcome`, because those are caller bugs rather than
/// regions of the load axis.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome<T> {
    /// The fixed point converged; the model is valid at this load.
    Converged(T),
    /// The load is at or past the saturation knee: a station saw `ρ ≥ 1`
    /// or the iteration was caught diverging. `knee_estimate` is the
    /// bracketed knee when the caller has run [`bracket_knee`] (loads in
    /// the same units the solve was asked in), `None` otherwise.
    Saturated {
        /// Best available estimate of the saturation knee, if bracketed.
        knee_estimate: Option<f64>,
    },
    /// The iteration budget expired with the residual still shrinking too
    /// slowly — neither a solution nor a saturation diagnosis. Distinct
    /// from `Saturated` so callers can flag points needing a bigger budget.
    NoConvergence {
        /// Map evaluations performed before giving up.
        iterations: usize,
        /// Final residual (∞-norm step size).
        residual: f64,
    },
}

impl<T> SolveOutcome<T> {
    /// `true` for the `Converged` arm.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        matches!(self, SolveOutcome::Converged(_))
    }

    /// `true` for the `Saturated` arm.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        matches!(self, SolveOutcome::Saturated { .. })
    }

    /// The converged value, if any.
    #[must_use]
    pub fn converged(&self) -> Option<&T> {
        match self {
            SolveOutcome::Converged(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the converged value if any.
    #[must_use]
    pub fn into_converged(self) -> Option<T> {
        match self {
            SolveOutcome::Converged(v) => Some(v),
            _ => None,
        }
    }

    /// Maps the converged value, preserving the failure arms.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SolveOutcome<U> {
        match self {
            SolveOutcome::Converged(v) => SolveOutcome::Converged(f(v)),
            SolveOutcome::Saturated { knee_estimate } => SolveOutcome::Saturated { knee_estimate },
            SolveOutcome::NoConvergence {
                iterations,
                residual,
            } => SolveOutcome::NoConvergence {
                iterations,
                residual,
            },
        }
    }

    /// Short machine-friendly tag for CSV columns and telemetry
    /// (`"converged"`, `"saturated"`, `"no_convergence"`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SolveOutcome::Converged(_) => "converged",
            SolveOutcome::Saturated { .. } => "saturated",
            SolveOutcome::NoConvergence { .. } => "no_convergence",
        }
    }
}

// ---------------------------------------------------------------------------
// Escalation ladder
// ---------------------------------------------------------------------------

/// One rung of the escalation ladder, in ascending order of firepower.
///
/// The interpretation of each rung belongs to the solver being driven; for
/// the `wormsim-core` fixed point they map to the paper's damped Picard
/// iteration at its standard damping, a heavily-damped variant for
/// marginally-stable loads, and the Aitken-accelerated solver restarted
/// from a cold seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The solver's standard configuration.
    Plain,
    /// Heavier damping: slower but contracts in regimes where the plain
    /// iteration oscillates or overshoots.
    Damped,
    /// Aitken-accelerated iteration restarted from a cold seed — the
    /// strongest rung, able to land on weakly-repelling fixed points the
    /// Picard map walks away from.
    AcceleratedRestart,
}

impl Rung {
    /// Every rung, in escalation order.
    pub const LADDER: [Rung; 3] = [Rung::Plain, Rung::Damped, Rung::AcceleratedRestart];

    /// Short label for telemetry (`"plain"`, `"damped"`, `"accel_restart"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Rung::Plain => "plain",
            Rung::Damped => "damped",
            Rung::AcceleratedRestart => "accel_restart",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the escalation ladder concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum LadderOutcome<T, E> {
    /// A rung solved it. `rung` says which; `attempts` counts rungs tried
    /// (1 means the plain solve just worked — the common, zero-overhead
    /// case).
    Solved {
        /// The solution.
        value: T,
        /// The rung that succeeded.
        rung: Rung,
        /// Total rungs attempted, including the successful one.
        attempts: usize,
    },
    /// Every rung failed with a *retryable* error: the strongest solver
    /// available could neither converge nor prove saturation. Carries the
    /// last (strongest-rung) error.
    Exhausted {
        /// The error from the final rung.
        last_error: E,
        /// Total rungs attempted.
        attempts: usize,
    },
    /// A rung failed with a non-retryable error — saturation (`ρ ≥ 1`) or
    /// a spec problem that no amount of damping will fix. The ladder stops
    /// immediately; retrying a definitive diagnosis only wastes time.
    Aborted {
        /// The definitive error.
        error: E,
        /// The rung that produced it.
        rung: Rung,
        /// Total rungs attempted, including the aborting one.
        attempts: usize,
    },
}

/// Drives a solve up the escalation ladder.
///
/// `solve` is invoked with each [`Rung`] in [`Rung::LADDER`] order until it
/// succeeds, fails non-retryably (per `retryable`), or the ladder is
/// exhausted. The closure owns all solver state (warm starts, traces);
/// `escalate` only sequences the attempts.
pub fn escalate<T, E>(
    mut solve: impl FnMut(Rung) -> Result<T, E>,
    retryable: impl Fn(&E) -> bool,
) -> LadderOutcome<T, E> {
    for (i, rung) in Rung::LADDER.into_iter().enumerate() {
        let attempts = i + 1;
        match solve(rung) {
            Ok(value) => {
                return LadderOutcome::Solved {
                    value,
                    rung,
                    attempts,
                }
            }
            Err(e) if retryable(&e) => {
                if attempts == Rung::LADDER.len() {
                    return LadderOutcome::Exhausted {
                        last_error: e,
                        attempts,
                    };
                }
            }
            Err(error) => {
                return LadderOutcome::Aborted {
                    error,
                    rung,
                    attempts,
                }
            }
        }
    }
    unreachable!("Rung::LADDER is non-empty; every iteration of the final rung returns")
}

// ---------------------------------------------------------------------------
// Knee bracketing
// ---------------------------------------------------------------------------

/// Configuration for [`bracket_knee`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KneeConfig {
    /// First load probed; must be `> 0`. If the model is already
    /// infeasible here the bracketer reports
    /// [`KneeError::InfeasibleAtFloor`].
    pub initial: f64,
    /// Upper limit of the growth phase. A model still feasible above this
    /// yields [`KneeError::NoKneeBelowMax`] (e.g. a DAG model feasible at
    /// every finite load).
    pub max: f64,
    /// Bisection stops when the bracket satisfies
    /// `(hi − lo) ≤ rel_tolerance · hi`.
    pub rel_tolerance: f64,
    /// Hard cap on probe evaluations across both phases.
    pub max_probes: usize,
}

impl Default for KneeConfig {
    fn default() -> Self {
        Self {
            initial: 1e-3,
            max: 64.0,
            rel_tolerance: 5e-3,
            max_probes: 200,
        }
    }
}

/// A bracketed saturation knee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// Conservative knee estimate: the largest load proven feasible.
    /// Solving at `knee` succeeds; solving at `first_infeasible` does not.
    pub knee: f64,
    /// Upper end of the final bracket — the smallest load proven
    /// infeasible.
    pub first_infeasible: f64,
    /// Probe evaluations spent.
    pub probes: usize,
}

impl Knee {
    /// Relative bracket width `(hi − lo)/hi` — how tightly the knee is
    /// pinned down.
    #[must_use]
    pub fn rel_width(&self) -> f64 {
        (self.first_infeasible - self.knee) / self.first_infeasible
    }
}

/// Why [`bracket_knee`] could not produce a bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KneeError {
    /// The model was infeasible at the very first probe: the knee (if any)
    /// lies below `initial`, or the configuration is infeasible at every
    /// load (e.g. a disconnected fabric).
    InfeasibleAtFloor {
        /// The rejected floor load.
        load: f64,
    },
    /// The model stayed feasible all the way to `max`: no knee in range.
    NoKneeBelowMax {
        /// The growth-phase ceiling that was reached.
        max: f64,
    },
    /// `initial`, `max`, `rel_tolerance`, or `max_probes` was out of range
    /// (`initial` must be positive and below `max`; tolerance positive;
    /// probes nonzero).
    InvalidConfig,
}

impl fmt::Display for KneeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KneeError::InfeasibleAtFloor { load } => {
                write!(f, "model infeasible at floor load {load}")
            }
            KneeError::NoKneeBelowMax { max } => {
                write!(f, "no saturation knee below load {max}")
            }
            KneeError::InvalidConfig => write!(f, "invalid knee-bracketing configuration"),
        }
    }
}

impl std::error::Error for KneeError {}

/// Brackets the saturation knee of a monotone feasibility predicate.
///
/// `feasible(load)` must be `true` below the knee and `false` above it
/// (the structure the wormhole model guarantees: utilizations grow
/// monotonically with offered load). The bracketer:
///
/// 1. **Grows** geometrically from `cfg.initial`, doubling until the first
///    infeasible load (or `cfg.max`, reported as an error).
/// 2. **Bisects** the resulting `[feasible, infeasible]` bracket until its
///    relative width is below `cfg.rel_tolerance`.
///
/// The returned [`Knee::knee`] is the *feasible* end of the final bracket,
/// so it is always safe to solve at. Probes are charged against
/// `cfg.max_probes`; hitting the cap returns the bracket as-is (wider than
/// requested, never wrong).
///
/// # Errors
///
/// [`KneeError::InfeasibleAtFloor`] if the first probe fails,
/// [`KneeError::NoKneeBelowMax`] if none does, [`KneeError::InvalidConfig`]
/// on nonsensical configuration.
pub fn bracket_knee(
    cfg: &KneeConfig,
    mut feasible: impl FnMut(f64) -> bool,
) -> Result<Knee, KneeError> {
    // The comparisons are written so that NaN in any field fails them.
    let positive_initial = cfg.initial > 0.0;
    let ordered = cfg.max > cfg.initial;
    let positive_tol = cfg.rel_tolerance > 0.0;
    if !positive_initial
        || !ordered
        || !positive_tol
        || cfg.max_probes == 0
        || !cfg.initial.is_finite()
        || !cfg.max.is_finite()
    {
        return Err(KneeError::InvalidConfig);
    }
    let mut probes = 0usize;
    let mut probe = |load: f64, probes: &mut usize| {
        *probes += 1;
        feasible(load)
    };

    if !probe(cfg.initial, &mut probes) {
        return Err(KneeError::InfeasibleAtFloor { load: cfg.initial });
    }
    // Growth phase: double until infeasible.
    let mut lo = cfg.initial;
    let mut hi = cfg.initial;
    loop {
        hi = (hi * 2.0).min(cfg.max);
        if probes >= cfg.max_probes || !probe(hi, &mut probes) {
            break;
        }
        lo = hi;
        if hi >= cfg.max {
            return Err(KneeError::NoKneeBelowMax { max: cfg.max });
        }
    }
    // Bisection phase: tighten [lo, hi] with lo always feasible.
    while (hi - lo) > cfg.rel_tolerance * hi && probes < cfg.max_probes {
        let mid = 0.5 * (lo + hi);
        if probe(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Knee {
        knee: lo,
        first_infeasible: hi,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_queueing::QueueingError;

    /// The ladder tests' retry policy: iteration failures are worth a
    /// stronger rung, while saturation and invalid input are definitive.
    fn retryable(e: &QueueingError) -> bool {
        matches!(
            e,
            QueueingError::NoConvergence { .. } | QueueingError::Diverged { .. }
        )
    }

    #[test]
    fn outcome_accessors_and_labels() {
        let c: SolveOutcome<f64> = SolveOutcome::Converged(2.5);
        assert!(c.is_converged());
        assert_eq!(c.converged(), Some(&2.5));
        assert_eq!(c.label(), "converged");
        assert_eq!(c.clone().into_converged(), Some(2.5));
        assert_eq!(c.map(|v| v * 2.0), SolveOutcome::Converged(5.0));

        let s: SolveOutcome<f64> = SolveOutcome::Saturated {
            knee_estimate: Some(0.4),
        };
        assert!(s.is_saturated() && !s.is_converged());
        assert_eq!(s.label(), "saturated");
        assert_eq!(s.converged(), None);
        assert_eq!(
            s.map(|v| v + 1.0),
            SolveOutcome::Saturated {
                knee_estimate: Some(0.4)
            }
        );

        let n: SolveOutcome<f64> = SolveOutcome::NoConvergence {
            iterations: 7,
            residual: 0.1,
        };
        assert_eq!(n.label(), "no_convergence");
        assert_eq!(n.into_converged(), None);
    }

    #[test]
    fn ladder_returns_first_success_without_extra_attempts() {
        let out = escalate::<_, QueueingError>(|_| Ok(42), retryable);
        assert_eq!(
            out,
            LadderOutcome::Solved {
                value: 42,
                rung: Rung::Plain,
                attempts: 1
            }
        );
    }

    #[test]
    fn ladder_escalates_past_transient_failures() {
        let mut calls = Vec::new();
        let out = escalate(
            |rung| {
                calls.push(rung);
                if rung == Rung::AcceleratedRestart {
                    Ok("rescued")
                } else {
                    Err(QueueingError::Diverged {
                        iterations: 41,
                        residual: 1e9,
                    })
                }
            },
            retryable,
        );
        assert_eq!(
            calls,
            vec![Rung::Plain, Rung::Damped, Rung::AcceleratedRestart]
        );
        assert!(matches!(
            out,
            LadderOutcome::Solved {
                value: "rescued",
                rung: Rung::AcceleratedRestart,
                attempts: 3
            }
        ));
    }

    #[test]
    fn ladder_aborts_immediately_on_saturation() {
        let mut calls = 0;
        let out = escalate::<u8, _>(
            |_| {
                calls += 1;
                Err(QueueingError::Saturated { utilization: 1.3 })
            },
            retryable,
        );
        assert_eq!(calls, 1, "a definitive diagnosis must not be retried");
        assert!(matches!(
            out,
            LadderOutcome::Aborted {
                error: QueueingError::Saturated { .. },
                rung: Rung::Plain,
                attempts: 1
            }
        ));
    }

    #[test]
    fn ladder_reports_exhaustion_with_the_strongest_rung_error() {
        let out = escalate::<u8, _>(
            |rung| {
                Err(QueueingError::NoConvergence {
                    iterations: match rung {
                        Rung::Plain => 1,
                        Rung::Damped => 2,
                        Rung::AcceleratedRestart => 3,
                    },
                    residual: 1.0,
                })
            },
            retryable,
        );
        match out {
            LadderOutcome::Exhausted {
                last_error: QueueingError::NoConvergence { iterations, .. },
                attempts,
            } => {
                assert_eq!(attempts, 3);
                assert_eq!(iterations, 3, "must carry the final rung's error");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn bracketer_pins_a_synthetic_knee() {
        let true_knee = 0.37;
        let cfg = KneeConfig {
            initial: 0.01,
            max: 8.0,
            rel_tolerance: 1e-3,
            max_probes: 100,
        };
        let knee = bracket_knee(&cfg, |load| load < true_knee).unwrap();
        assert!(knee.knee < true_knee, "knee end must be feasible");
        assert!(knee.first_infeasible >= true_knee);
        assert!(
            knee.rel_width() <= 1e-3 + 1e-12,
            "bracket too wide: {:?}",
            knee
        );
        assert!((knee.knee - true_knee).abs() / true_knee < 2e-3);
        assert!(knee.probes <= 100);
    }

    #[test]
    fn bracketer_reports_infeasible_floor_and_open_ceiling() {
        let cfg = KneeConfig::default();
        assert_eq!(
            bracket_knee(&cfg, |_| false),
            Err(KneeError::InfeasibleAtFloor { load: cfg.initial })
        );
        assert_eq!(
            bracket_knee(&cfg, |_| true),
            Err(KneeError::NoKneeBelowMax { max: cfg.max })
        );
    }

    #[test]
    fn bracketer_rejects_nonsense_configs() {
        let feasible = |load: f64| load < 1.0;
        for cfg in [
            KneeConfig {
                initial: 0.0,
                ..Default::default()
            },
            KneeConfig {
                initial: -1.0,
                ..Default::default()
            },
            KneeConfig {
                initial: 100.0,
                max: 1.0,
                ..Default::default()
            },
            KneeConfig {
                rel_tolerance: 0.0,
                ..Default::default()
            },
            KneeConfig {
                max_probes: 0,
                ..Default::default()
            },
            KneeConfig {
                initial: f64::NAN,
                ..Default::default()
            },
        ] {
            assert_eq!(
                bracket_knee(&cfg, feasible),
                Err(KneeError::InvalidConfig),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn bracketer_respects_probe_cap_and_stays_correct() {
        let true_knee = 0.4321;
        let cfg = KneeConfig {
            initial: 0.01,
            max: 8.0,
            rel_tolerance: 1e-9,
            max_probes: 12,
        };
        let mut evals = 0usize;
        let knee = bracket_knee(&cfg, |load| {
            evals += 1;
            load < true_knee
        })
        .unwrap();
        assert!(evals <= 12 + 1, "cap must bound work, saw {evals}");
        // Capped bracket is wider than asked but still correct.
        assert!(knee.knee < true_knee && knee.first_infeasible >= true_knee);
    }

    #[test]
    fn knee_error_displays_are_informative() {
        assert!(KneeError::InfeasibleAtFloor { load: 0.001 }
            .to_string()
            .contains("floor"));
        assert!(KneeError::NoKneeBelowMax { max: 64.0 }
            .to_string()
            .contains("no saturation knee"));
        assert!(KneeError::InvalidConfig.to_string().contains("invalid"));
    }
}
