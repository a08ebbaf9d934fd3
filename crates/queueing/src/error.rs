//! Error type shared by all queueing computations.

use std::fmt;

/// Errors raised by queueing-theory computations.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// The station is at or beyond its stability limit (`ρ ≥ 1`).
    ///
    /// Carries the offending per-server utilization so callers scanning for
    /// the saturation point can report how far past the knee they landed.
    Saturated {
        /// Per-server utilization `ρ = λx̄/m` that violated `ρ < 1`.
        utilization: f64,
    },
    /// An arrival rate was negative or non-finite.
    InvalidRate {
        /// The rejected rate value.
        rate: f64,
    },
    /// A mean service time was zero, negative, or non-finite.
    InvalidServiceTime {
        /// The rejected service-time value.
        service_time: f64,
    },
    /// A squared coefficient of variation was negative or non-finite.
    InvalidScv {
        /// The rejected SCV value.
        scv: f64,
    },
    /// A server count of zero was supplied to a multi-server formula.
    InvalidServerCount,
    /// A fixed-point iteration failed to converge within its budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual `|x_{k+1} − x_k|` (∞-norm) at the last iteration.
        residual: f64,
    },
    /// A fixed-point iteration was detected *diverging*: its residual grew
    /// monotonically past the watchdog threshold, or an iterate went
    /// non-finite. Unlike [`NoConvergence`](Self::NoConvergence) (budget
    /// exhausted while possibly still contracting), this is an early exit —
    /// the map is moving away from any fixed point, the signature of a
    /// load past the saturation knee.
    Diverged {
        /// Number of iterations performed before the watchdog fired.
        iterations: usize,
        /// Residual at detection (infinite when an iterate went
        /// non-finite).
        residual: f64,
    },
    /// A formula produced a non-finite (or negative) result from inputs
    /// that passed validation — numerical overflow in an intermediate,
    /// typically at extreme loads just below a stability boundary.
    Numerical {
        /// The offending computed value.
        value: f64,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueingError::Saturated { utilization } => {
                write!(
                    f,
                    "queue saturated: per-server utilization {utilization} >= 1"
                )
            }
            QueueingError::InvalidRate { rate } => {
                write!(f, "invalid arrival rate {rate}: must be finite and >= 0")
            }
            QueueingError::InvalidServiceTime { service_time } => {
                write!(
                    f,
                    "invalid mean service time {service_time}: must be finite and > 0"
                )
            }
            QueueingError::InvalidScv { scv } => {
                write!(
                    f,
                    "invalid squared coefficient of variation {scv}: must be finite and >= 0"
                )
            }
            QueueingError::InvalidServerCount => {
                write!(f, "server count must be at least 1")
            }
            QueueingError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(f, "fixed point did not converge after {iterations} iterations (residual {residual:e})")
            }
            QueueingError::Diverged {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "fixed point diverged after {iterations} iterations (residual {residual:e})"
                )
            }
            QueueingError::Numerical { value } => {
                write!(f, "computation produced non-finite value {value}")
            }
        }
    }
}

impl std::error::Error for QueueingError {}

/// Validates an arrival rate (finite, non-negative).
pub(crate) fn check_rate(lambda: f64) -> crate::Result<()> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(QueueingError::InvalidRate { rate: lambda });
    }
    Ok(())
}

/// Validates a mean service time (finite, strictly positive).
pub(crate) fn check_service_time(x: f64) -> crate::Result<()> {
    if !x.is_finite() || x <= 0.0 {
        return Err(QueueingError::InvalidServiceTime { service_time: x });
    }
    Ok(())
}

/// Validates a squared coefficient of variation (finite, non-negative).
pub(crate) fn check_scv(scv: f64) -> crate::Result<()> {
    if !scv.is_finite() || scv < 0.0 {
        return Err(QueueingError::InvalidScv { scv });
    }
    Ok(())
}

/// Output-domain guard: a mean waiting time must come out finite and
/// non-negative. Catches numerical overflow that validated inputs can
/// still produce just below a stability boundary, returning a typed error
/// instead of letting `inf`/`NaN` leak into downstream fixed points.
pub(crate) fn check_wait(w: f64) -> crate::Result<f64> {
    if !w.is_finite() || w < 0.0 {
        return Err(QueueingError::Numerical { value: w });
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(QueueingError, &str)> = vec![
            (QueueingError::Saturated { utilization: 1.2 }, "saturated"),
            (QueueingError::InvalidRate { rate: -1.0 }, "arrival rate"),
            (
                QueueingError::InvalidServiceTime { service_time: 0.0 },
                "service time",
            ),
            (
                QueueingError::InvalidScv { scv: -0.5 },
                "coefficient of variation",
            ),
            (QueueingError::InvalidServerCount, "server count"),
            (
                QueueingError::NoConvergence {
                    iterations: 10,
                    residual: 1e-3,
                },
                "converge",
            ),
            (
                QueueingError::Diverged {
                    iterations: 40,
                    residual: 1e9,
                },
                "diverged",
            ),
            (QueueingError::Numerical { value: f64::NAN }, "non-finite"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err:?} display should mention {needle:?}"
            );
        }
    }

    #[test]
    fn validators_accept_good_values() {
        assert!(check_rate(0.0).is_ok());
        assert!(check_rate(0.3).is_ok());
        assert!(check_service_time(1e-9).is_ok());
        assert!(check_scv(0.0).is_ok());
        assert!(check_scv(4.0).is_ok());
    }

    #[test]
    fn validators_reject_bad_values() {
        assert!(check_rate(-0.1).is_err());
        assert!(check_rate(f64::NAN).is_err());
        assert!(check_rate(f64::INFINITY).is_err());
        assert!(check_service_time(0.0).is_err());
        assert!(check_service_time(-2.0).is_err());
        assert!(check_service_time(f64::NAN).is_err());
        assert!(check_scv(-1e-12).is_err());
        assert!(check_scv(f64::NAN).is_err());
    }

    #[test]
    fn wait_guard_passes_finite_and_traps_garbage() {
        assert_eq!(check_wait(0.0).unwrap(), 0.0);
        assert_eq!(check_wait(12.5).unwrap(), 12.5);
        assert!(matches!(
            check_wait(f64::NAN),
            Err(QueueingError::Numerical { .. })
        ));
        assert!(check_wait(f64::INFINITY).is_err());
        assert!(check_wait(-1.0).is_err());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&QueueingError::InvalidServerCount);
    }
}
