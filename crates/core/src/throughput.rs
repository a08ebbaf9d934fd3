//! Saturation throughput (paper §2.3 / §3.5 / Eq. 26).
//!
//! The network saturates at the source rate `λ₀` where the source channel's
//! service time equals the inter-arrival time: `x̄₀,₁(λ₀) = 1/λ₀`. Below
//! that point the source queue is stable; above it, offered traffic exceeds
//! what the network can drain. The paper scans `λ₀` upward; we solve the
//! equivalent root problem `g(λ₀) = x̄₀,₁(λ₀) − 1/λ₀ = 0` by doubling `λ₀`
//! until `g ≥ 0`, then halving the bracket (`g` is strictly increasing:
//! `x̄₀,₁` grows with load while `1/λ₀` falls), treating evaluation
//! failures past the knee as `g > 0`. Each `λ₀` is evaluated once.

use crate::error::ModelError;
use crate::Result;
use wormsim_guard::KneeError;

/// The growth phase gives up above this rate (messages/cycle/PE).
const MAX_RATE: f64 = 4.0;

/// The halving stops once the bracket is narrower than this (absolute,
/// in messages/cycle/PE).
const TOLERANCE: f64 = 1e-12;
/// Cap on the halvings; the tolerance is reached long before it.
const MAX_HALVINGS: usize = 200;

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
/// queueing stage) for large rates — failures past the first probe are
/// treated as "beyond the knee".
///
/// # Errors
///
/// The model's own error, unchanged, when it fails at the first,
/// vanishing load (a usage error such as an invalid lane count);
/// [`ModelError::Saturation`] when the source is already saturated there;
/// [`ModelError::Knee`] with [`KneeError::NoKneeBelowMax`] when the model
/// never saturates for `λ₀ ≤ 4`.
pub fn saturation_point<F>(worm_flits: f64, mut source_service: F) -> Result<SaturationPoint>
where
    F: FnMut(f64) -> Result<f64>,
{
    // g(λ) = x(λ) − 1/λ. Establish a bracket [lo, hi] with g(lo) < 0.
    let mut lo = 1e-9;
    let x_lo = source_service(lo)?;
    if x_lo - 1.0 / lo >= 0.0 {
        return Err(ModelError::Saturation(
            "source already saturated at vanishing load".to_string(),
        ));
    }
    // Grow hi until g(hi) >= 0 or the model refuses to evaluate.
    let mut hi = lo * 2.0;
    loop {
        if hi > MAX_RATE {
            let no_knee = KneeError::NoKneeBelowMax { max: MAX_RATE };
            return Err(ModelError::Knee(no_knee));
        }
        match source_service(hi) {
            Ok(x) if x - 1.0 / hi >= 0.0 => break,
            Ok(_) => lo = hi,
            Err(_) => break,
        }
        hi *= 2.0;
    }
    let root = bisect(lo, hi, |lambda| {
        source_service(lambda).map(|x| x - 1.0 / lambda)
    });
    Ok(SaturationPoint {
        message_rate: root,
        flit_load: root * worm_flits,
        worm_flits,
    })
}

/// Halves `[lo, hi]`, where `g(lo) < 0` and `g(hi) ≥ 0` or `g` failed
/// there, until it is narrower than [`TOLERANCE`]; a failed evaluation
/// counts as past the root. Returns the final midpoint.
fn bisect(mut lo: f64, mut hi: f64, mut g: impl FnMut(f64) -> Result<f64>) -> f64 {
    for _ in 0..MAX_HALVINGS {
        if hi - lo < TOLERANCE {
            break;
        }
        let mid = 0.5 * (lo + hi);
        match g(mid) {
            Ok(v) if v < 0.0 => lo = mid,
            _ => hi = mid,
        }
    }
    0.5 * (lo + hi)
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
    fn bisect_finds_simple_root() {
        // g(x) = x² − 2 on [0, 2] → √2.
        let root = bisect(0.0, 2.0, |x| Ok(x * x - 2.0));
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_error_as_positive_region() {
        // g errors above 1.0 (like a saturated model); root of x−0.5 is 0.5.
        let root = bisect(0.0, 2.0, |x| {
            if x > 1.0 {
                Err(ModelError::Saturation("diverged".into()))
            } else {
                Ok(x - 0.5)
            }
        });
        assert!((root - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bisect_respects_tolerance() {
        // The bracket closes to 1e-12 well within the 200 halvings.
        let root = bisect(0.0, 10.0, |x| Ok(x - 3.3));
        assert!((root - 3.3).abs() < 1e-12);
    }

    #[test]
    fn each_rate_is_evaluated_once() {
        // The growth phase's last two rates are the halving's bracket ends;
        // neither is evaluated again.
        let mut seen = Vec::new();
        let sat = saturation_point(16.0, |lambda| {
            seen.push(lambda);
            Ok(16.0 / (1.0 - 40.0 * lambda).max(1e-9))
        })
        .unwrap();
        assert!((sat.message_rate - 1.0 / 56.0).abs() < 1e-9);
        let mut sorted = seen.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "a rate was evaluated twice");
    }

    #[test]
    fn constant_service_time_saturates_at_reciprocal() {
        // x(λ) = s exactly: saturation at λ = 1/s.
        let s = 20.0;
        let sat = saturation_point(s, |_| Ok(s)).unwrap();
        // The halving closes the bracket to 1e-12.
        assert!((sat.message_rate - 1.0 / s).abs() < 1e-12);
        assert!((sat.flit_load - 1.0).abs() < 1e-7);
    }

    #[test]
    fn never_saturating_model_errors() {
        // x(λ) = 1e-12: 1/λ never comes down to it within λ ≤ 4. Feasible
        // up to the ceiling is not a saturation.
        let err = saturation_point(16.0, |_| Ok(1e-12)).unwrap_err();
        assert_eq!(
            err,
            ModelError::Knee(KneeError::NoKneeBelowMax { max: 4.0 })
        );
        assert!(!err.is_saturation());
    }

    #[test]
    fn failure_at_vanishing_load_is_reported() {
        // The first probe's error is the model's own, passed through.
        let broken = ModelError::Spec("broken".into());
        let err = saturation_point(16.0, |_| Err::<f64, _>(broken.clone())).unwrap_err();
        assert_eq!(err, broken);
        assert!(!err.is_saturation());
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
