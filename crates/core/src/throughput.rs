//! Saturation throughput (paper §2.3 / §3.5 / Eq. 26).
//!
//! The network saturates at the source rate `λ₀` where the source channel's
//! service time equals the inter-arrival time: `x̄₀,₁(λ₀) = 1/λ₀`. Below
//! that point the source queue is stable; above it, offered traffic exceeds
//! what the network can drain. The paper scans `λ₀` upward; we solve the
//! equivalent root problem `g(λ₀) = x̄₀,₁(λ₀) − 1/λ₀ = 0` by bisection
//! (`g` is strictly increasing: `x̄₀,₁` grows with load while `1/λ₀`
//! falls), treating evaluation failures past the knee as `g > 0`.

use crate::error::ModelError;
use crate::Result;
use wormsim_queueing::solver::bisect_increasing;
use wormsim_queueing::QueueingError;

/// A resolved saturation operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationPoint {
    /// Saturation source rate in messages/cycle/PE.
    pub message_rate: f64,
    /// The same point expressed in flits/cycle/PE (`message_rate · s/f`).
    pub flit_load: f64,
    /// Worm length used for the conversion.
    pub worm_flits: f64,
}

/// Finds the saturation point for a model exposing its source service time
/// `x̄₀,₁(λ₀)`.
///
/// `source_service` must be increasing in `λ₀` and may fail (saturated
/// queueing stage) for large rates — failures are treated as "beyond the
/// knee".
///
/// # Errors
///
/// [`ModelError::Saturation`] when no bracket can be established (e.g. the
/// model never saturates in `λ₀ ∈ (0, 1]`, or fails at vanishing load).
pub fn saturation_point<F>(worm_flits: f64, mut source_service: F) -> Result<SaturationPoint>
where
    F: FnMut(f64) -> Result<f64>,
{
    // g(λ) = x(λ) − 1/λ. Establish a bracket [lo, hi] with g(lo) < 0.
    let mut lo = 1e-9;
    let x_lo = source_service(lo)
        .map_err(|e| ModelError::Saturation(format!("model failed at vanishing load: {e}")))?;
    if x_lo - 1.0 / lo >= 0.0 {
        return Err(ModelError::Saturation(
            "source already saturated at vanishing load".to_string(),
        ));
    }
    // Grow hi until g(hi) >= 0 or the model refuses to evaluate.
    let mut hi = lo * 2.0;
    let mut bracketed = false;
    while hi <= 4.0 {
        match source_service(hi) {
            Ok(x) => {
                if x - 1.0 / hi >= 0.0 {
                    bracketed = true;
                    break;
                }
                lo = hi;
            }
            Err(_) => {
                bracketed = true;
                break;
            }
        }
        hi *= 2.0;
    }
    if !bracketed {
        return Err(ModelError::Saturation(
            "no saturation found for λ₀ ≤ 4 messages/cycle".to_string(),
        ));
    }
    // The bisection reads any failure past `lo` as "beyond the knee", and
    // `lo` itself evaluated above, so the error's payload is never shown.
    let root = bisect_increasing(lo, hi, |lambda| {
        source_service(lambda)
            .map(|x| x - 1.0 / lambda)
            .map_err(|_| QueueingError::Saturated {
                utilization: f64::INFINITY,
            })
    })
    .map_err(|e| ModelError::Saturation(e.to_string()))?;
    Ok(SaturationPoint {
        message_rate: root,
        flit_load: root * worm_flits,
        worm_flits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_toy_model_has_known_saturation() {
        // x(λ) = s/(1 − aλ) mimics a service time diverging at λ = 1/a.
        // Saturation: s/(1−aλ) = 1/λ ⇒ sλ = 1 − aλ ⇒ λ* = 1/(s + a).
        let (s, a) = (16.0, 40.0);
        let sat = saturation_point(s, |lambda| {
            if lambda * a >= 1.0 {
                Err(ModelError::Saturation("diverged".into()))
            } else {
                Ok(s / (1.0 - a * lambda))
            }
        })
        .unwrap();
        let expect = 1.0 / (s + a);
        assert!(
            (sat.message_rate - expect).abs() < 1e-9,
            "{} vs {expect}",
            sat.message_rate
        );
        assert!((sat.flit_load - expect * s).abs() < 1e-9);
    }

    #[test]
    fn constant_service_time_saturates_at_reciprocal() {
        // x(λ) = s exactly: saturation at λ = 1/s.
        let s = 20.0;
        let sat = saturation_point(s, |_| Ok(s)).unwrap();
        assert!((sat.message_rate - 1.0 / s).abs() < 1e-9);
        assert!((sat.flit_load - 1.0).abs() < 1e-7);
    }

    #[test]
    fn never_saturating_model_errors() {
        // x(λ) = 1e-12: 1/λ never comes down to it within λ ≤ 4.
        let err = saturation_point(16.0, |_| Ok(1e-12)).unwrap_err();
        assert!(matches!(err, ModelError::Saturation(_)));
    }

    #[test]
    fn failure_at_vanishing_load_is_reported() {
        let err = saturation_point(16.0, |_| Err::<f64, _>(ModelError::Spec("broken".into())))
            .unwrap_err();
        assert!(err.to_string().contains("vanishing load"));
    }

    #[test]
    fn model_erroring_early_is_treated_as_knee() {
        // Model evaluates only for λ < 0.01 where x = 16; the bracket must
        // close via the error branch and bisection must converge to the
        // boundary region (where g first becomes "positive" by failure).
        let sat = saturation_point(16.0, |lambda| {
            if lambda >= 0.01 {
                Err(ModelError::Saturation("blown".into()))
            } else {
                Ok(16.0)
            }
        })
        .unwrap();
        // True crossing of 16 = 1/λ is λ = 0.0625 > 0.01, so the reported
        // point is the failure boundary 0.01.
        assert!((sat.message_rate - 0.01).abs() < 1e-6);
    }
}
