//! Error type for model evaluations.

use std::fmt;
use wormsim_queueing::QueueingError;

/// Errors raised while evaluating an analytical model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A queueing computation failed at a specific channel class — most
    /// commonly saturation of that class at the requested load.
    Queueing {
        /// Human-readable channel-class label (paper notation, e.g. `<0,1>`).
        class: String,
        /// The underlying queueing error.
        source: QueueingError,
    },
    /// The network specification was internally inconsistent.
    Spec(String),
    /// The saturation search could not bracket a solution.
    Saturation(String),
    /// A cyclic solve's fixed-point iteration failed: the budget expired
    /// (`diverged: false`) or the divergence watchdog fired
    /// (`diverged: true` — the signature of a load past the knee).
    NoConvergence {
        /// Map evaluations performed.
        iterations: usize,
        /// Final residual (∞-norm step size).
        residual: f64,
        /// Whether the failure was a detected divergence rather than an
        /// exhausted budget.
        diverged: bool,
    },
    /// Knee bracketing ([`crate::framework::NetworkSpec::find_knee`])
    /// could not produce a bracket.
    Knee(wormsim_guard::KneeError),
}

impl ModelError {
    /// Convenience constructor tagging a queueing error with its channel.
    pub fn at(class: impl Into<String>, source: QueueingError) -> Self {
        ModelError::Queueing {
            class: class.into(),
            source,
        }
    }

    /// True when the failure is a saturation (as opposed to a usage error).
    #[must_use]
    pub fn is_saturation(&self) -> bool {
        matches!(
            self,
            ModelError::Queueing {
                source: QueueingError::Saturated { .. },
                ..
            } | ModelError::Saturation(_)
        )
    }

    /// True when a queueing computation rejected a value the *solve
    /// itself* produced — a negative or non-finite service time, wait, or
    /// probability arising mid-iteration. On a spec that passed
    /// [`crate::framework::NetworkSpec::validate`] these are not usage
    /// errors but the numerical signature of a load past the knee (the
    /// iterate left the model's physical domain), so the saturation-aware
    /// entry points treat them as retryable and, if they survive the
    /// whole escalation ladder, as saturation.
    #[must_use]
    pub fn is_domain_excursion(&self) -> bool {
        matches!(
            self,
            ModelError::Queueing {
                source: QueueingError::InvalidServiceTime { .. }
                    | QueueingError::InvalidRate { .. }
                    | QueueingError::InvalidScv { .. }
                    | QueueingError::Numerical { .. },
                ..
            }
        )
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Queueing { class, source } => {
                write!(f, "channel class {class}: {source}")
            }
            ModelError::Spec(msg) => write!(f, "invalid network specification: {msg}"),
            ModelError::Saturation(msg) => write!(f, "saturation search failed: {msg}"),
            ModelError::NoConvergence {
                iterations,
                residual,
                diverged,
            } => {
                let how = if *diverged {
                    "diverged"
                } else {
                    "did not converge"
                };
                write!(
                    f,
                    "fixed point {how} after {iterations} iterations (residual {residual:e})"
                )
            }
            ModelError::Knee(e) => write!(f, "knee bracketing failed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Queueing { source, .. } => Some(source),
            ModelError::Knee(source) => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_class_context() {
        let err = ModelError::at("<0,1>", QueueingError::Saturated { utilization: 1.2 });
        let msg = err.to_string();
        assert!(msg.contains("<0,1>"));
        assert!(msg.contains("saturated"));
    }

    #[test]
    fn saturation_detection() {
        assert!(
            ModelError::at("<1,0>", QueueingError::Saturated { utilization: 1.0 }).is_saturation()
        );
        assert!(ModelError::Saturation("no bracket".into()).is_saturation());
        assert!(!ModelError::Spec("bad".into()).is_saturation());
        assert!(!ModelError::at("<1,0>", QueueingError::InvalidServerCount).is_saturation());
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let err = ModelError::at("x", QueueingError::InvalidServerCount);
        assert!(err.source().is_some());
        assert!(ModelError::Spec("s".into()).source().is_none());
        assert!(ModelError::Knee(wormsim_guard::KneeError::InvalidConfig)
            .source()
            .is_some());
    }

    #[test]
    fn nonconvergence_display_distinguishes_divergence() {
        let budget = ModelError::NoConvergence {
            iterations: 20_000,
            residual: 1e-9,
            diverged: false,
        };
        assert!(budget.to_string().contains("did not converge"));
        assert!(!budget.is_saturation());
        let diverged = ModelError::NoConvergence {
            iterations: 41,
            residual: 1e9,
            diverged: true,
        };
        assert!(diverged.to_string().contains("diverged"));
        assert!(
            ModelError::Knee(wormsim_guard::KneeError::InfeasibleAtFloor { load: 0.01 })
                .to_string()
                .contains("knee")
        );
    }
}
