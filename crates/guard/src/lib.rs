//! Saturation-aware solving layer for the wormhole fixed-point model.
//!
//! The Greenberg–Guan model is only defined below the saturation knee: past
//! it, the §2 fixed point has no finite solution and a naive solver either
//! diverges, burns its whole iteration budget, or (worst) panics in a
//! downstream kernel fed `ρ ≥ 1`. This crate provides the two mechanisms
//! that make every solve *total over load ∈ [0, ∞)*:
//!
//! 1. **Typed outcomes** — [`SolveOutcome`] tags a solve as `Converged`,
//!    `Saturated` (the load is past the knee; the model has no answer and
//!    never will), or `NoConvergence` (the budget expired without a
//!    saturation diagnosis — rare, reported rather than retried forever).
//! 2. **Knee bracketing** — [`bracket_knee`] finds the boundary between
//!    the feasible and infeasible load regions by geometric growth plus
//!    bisection, so callers can *ask* where the model stops being valid
//!    instead of discovering it by panic.
//!
//! The crate is deliberately generic: it never names `NetworkSpec` (which
//! lives above it in the dependency order). `wormsim-core` builds
//! `NetworkSpec::solve_outcome` (and through it
//! `FlowModelSweep::outcome_at`) on these outcomes, retrying a failed
//! solve through its own escalation ladder first, and
//! `NetworkSpec::find_knee` on the bracketer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

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
    /// The load is at or past the saturation knee: a station saw `ρ ≥ 1`,
    /// or the iteration diverged or left the model's domain however it was
    /// retried. Where the knee lies is [`bracket_knee`]'s question, not the
    /// solve's.
    Saturated,
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
        matches!(self, SolveOutcome::Saturated)
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
            SolveOutcome::Saturated => SolveOutcome::Saturated,
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
            SolveOutcome::Saturated => "saturated",
            SolveOutcome::NoConvergence { .. } => "no_convergence",
        }
    }
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
    /// Conservative knee estimate: the largest load the probe sequence
    /// proved feasible, and `first_infeasible` the smallest it proved
    /// infeasible. The proof is that probe's answer: a predicate that
    /// carries state between probes (`NetworkSpec::find_knee` shares one
    /// warm start) may reject `knee` when asked again from scratch.
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
/// The returned [`Knee::knee`] is the *feasible* end of the final bracket:
/// the largest load at which a probe returned `true`. Probes are charged
/// against `cfg.max_probes`; hitting the cap returns the bracket as-is
/// (wider than requested, never wrong).
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

    #[test]
    fn outcome_accessors_and_labels() {
        let c: SolveOutcome<f64> = SolveOutcome::Converged(2.5);
        assert!(c.is_converged());
        assert_eq!(c.converged(), Some(&2.5));
        assert_eq!(c.label(), "converged");
        assert_eq!(c.clone().into_converged(), Some(2.5));
        assert_eq!(c.map(|v| v * 2.0), SolveOutcome::Converged(5.0));

        let s: SolveOutcome<f64> = SolveOutcome::Saturated;
        assert!(s.is_saturated() && !s.is_converged());
        assert_eq!(s.label(), "saturated");
        assert_eq!(s.converged(), None);
        assert_eq!(s.map(|v| v + 1.0), SolveOutcome::Saturated);

        let n: SolveOutcome<f64> = SolveOutcome::NoConvergence {
            iterations: 7,
            residual: 0.1,
        };
        assert_eq!(n.label(), "no_convergence");
        assert_eq!(n.into_converged(), None);
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
