//! Numerical solvers shared by the analytical models.
//!
//! Three tools live here:
//!
//! * [`fixed_point`] — damped fixed-point iteration on a vector of channel
//!   service times. The butterfly fat-tree resolves in one backward pass
//!   (its channel-dependency graph is a DAG), but the general framework of
//!   paper §2 must handle cyclic dependency graphs (e.g. tori), where the
//!   service-time equations are solved iteratively.
//! * [`fixed_point_accelerated`] — the sweep-aware variant: same
//!   contraction, but with adaptive damping and periodic Aitken Δ²
//!   extrapolation. Callers sweeping a parameter (a load sweep, a
//!   saturation bisection) seed each solve with the previous solve's
//!   converged vector; together warm starts and acceleration cut the
//!   iteration count substantially on interior sweep points while
//!   converging to the same fixed point (same tolerance, same map).
//! * [`bisect_increasing`] — bracketing bisection on a monotone function,
//!   used for the throughput computation of paper §2.3/§3.5: find the
//!   arrival rate where the source service time crosses `1/λ₀`.
//!
//! Both fixed-point solvers take an optional [`SolverTrace`] threaded
//! through the iteration loop — per-evaluation raw residual, damping
//! factor in force, and Aitken accept/reject outcomes — for convergence
//! telemetry. With `None` the per-iteration cost is one not-taken branch.

use crate::{QueueingError, Result};
use wormsim_obs::{AitkenStep, SolverTrace};

/// Divergence watchdog: after this many *consecutive* iterations of
/// residual growth, with the residual grown by [`DIVERGENCE_GROWTH`] over
/// its starting value, the iteration is declared diverging and aborted
/// with [`QueueingError::Diverged`] instead of burning the rest of its
/// budget. Contractions (even noisy ones near saturation) never sustain
/// monotone growth this long at this magnitude, so the early exit cannot
/// change any converging solve's outcome.
const DIVERGENCE_STREAK: usize = 40;
/// Minimum residual growth factor (relative to the first iteration's
/// residual) for the watchdog to fire.
const DIVERGENCE_GROWTH: f64 = 1e6;

/// Watchdog state shared by the plain and accelerated loops.
#[derive(Debug, Clone, Copy)]
struct DivergenceWatch {
    first_residual: f64,
    prev_residual: f64,
    streak: usize,
}

impl DivergenceWatch {
    fn new() -> Self {
        Self {
            first_residual: f64::NAN,
            prev_residual: f64::NAN,
            streak: 0,
        }
    }

    /// Feeds one iteration's residual; returns `true` when divergence is
    /// established (monotone growth streak past the threshold) or the
    /// residual went non-finite.
    fn observe(&mut self, residual: f64) -> bool {
        if !residual.is_finite() {
            return true;
        }
        if self.first_residual.is_nan() {
            self.first_residual = residual;
        }
        if residual > self.prev_residual {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.prev_residual = residual;
        self.streak >= DIVERGENCE_STREAK
            && residual > DIVERGENCE_GROWTH * self.first_residual.max(f64::MIN_POSITIVE)
    }

    /// Resets the growth streak (after an accepted extrapolation jump the
    /// previous residual sequence no longer describes the iterate path).
    fn reset_streak(&mut self) {
        self.streak = 0;
        self.prev_residual = f64::NAN;
    }
}

/// Configuration for the damped fixed-point iteration.
#[derive(Debug, Clone, Copy)]
pub struct FixedPointConfig {
    /// Convergence tolerance on the ∞-norm of the update.
    pub tolerance: f64,
    /// Maximum number of iterations before reporting failure.
    pub max_iterations: usize,
    /// Damping factor `θ ∈ (0, 1]`: `x ← (1−θ)·x + θ·F(x)`. `θ = 1` is the
    /// plain Picard iteration; smaller values stabilize near saturation.
    pub damping: f64,
}

impl Default for FixedPointConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
            damping: 0.5,
        }
    }
}

/// Outcome of a successful fixed-point solve.
#[derive(Debug, Clone)]
pub struct FixedPointOutcome {
    /// The converged vector.
    pub values: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final ∞-norm residual.
    pub residual: f64,
}

/// Runs damped fixed-point iteration `x ← (1−θ)x + θF(x)` until the ∞-norm
/// of the update drops below `config.tolerance`.
///
/// The map `f` writes `F(x)` into its second argument (avoiding per-iteration
/// allocation, per the HPC guide's hot-loop discipline) and may fail — e.g.
/// when an intermediate state saturates a queue — in which case iteration
/// stops and the error propagates.
///
/// With a `trace`, each iteration records the raw residual
/// `max_i |F(x)_i − x_i|` and the (fixed) damping factor. With `None` the
/// trace branch is never taken and the raw residual is not computed; the
/// iteration itself is identical either way.
///
/// # Errors
///
/// * [`QueueingError::NoConvergence`] after `max_iterations`.
/// * [`QueueingError::Diverged`] when the divergence watchdog fires
///   (sustained monotone residual growth, or a non-finite iterate) — the
///   signature of a load past the saturation knee.
/// * Any error returned by `f` (typically [`QueueingError::Saturated`]).
///
/// On [`QueueingError::NoConvergence`] or [`QueueingError::Diverged`] the
/// trace is finished with `converged = false`; a map error leaves it
/// unfinished.
pub fn fixed_point<F>(
    initial: &[f64],
    config: FixedPointConfig,
    mut f: F,
    mut trace: Option<&mut SolverTrace>,
) -> Result<FixedPointOutcome>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<()>,
{
    let theta = config.damping.clamp(f64::MIN_POSITIVE, 1.0);
    let mut x = initial.to_vec();
    let mut fx = vec![0.0; x.len()];
    let mut watch = DivergenceWatch::new();
    for iteration in 1..=config.max_iterations {
        f(&x, &mut fx)?;
        if let Some(tr) = trace.as_deref_mut() {
            let mut raw = 0.0f64;
            for (xi, fxi) in x.iter().zip(fx.iter()) {
                raw = raw.max((fxi - xi).abs());
            }
            tr.record(iteration, raw, theta, AitkenStep::NotAttempted);
        }
        let mut residual = 0.0f64;
        for (xi, fxi) in x.iter_mut().zip(fx.iter()) {
            let next = (1.0 - theta) * *xi + theta * *fxi;
            residual = residual.max((next - *xi).abs());
            *xi = next;
        }
        if residual < config.tolerance {
            if let Some(tr) = trace.as_deref_mut() {
                tr.finish(true, residual);
            }
            return Ok(FixedPointOutcome {
                values: x,
                iterations: iteration,
                residual,
            });
        }
        if watch.observe(residual) {
            if let Some(tr) = trace.as_deref_mut() {
                tr.finish(false, residual);
            }
            return Err(QueueingError::Diverged {
                iterations: iteration,
                residual,
            });
        }
    }
    let mut residual = 0.0f64;
    f(&x, &mut fx)?;
    for (xi, fxi) in x.iter().zip(fx.iter()) {
        residual = residual.max((theta * (fxi - xi)).abs());
    }
    if let Some(tr) = trace {
        tr.finish(false, residual);
    }
    Err(QueueingError::NoConvergence {
        iterations: config.max_iterations,
        residual,
    })
}

/// Tuning for [`fixed_point_accelerated`] on top of a base
/// [`FixedPointConfig`].
#[derive(Debug, Clone, Copy)]
pub struct AccelerationConfig {
    /// Attempt a component-wise Aitken Δ² extrapolation every this many
    /// iterations (0 disables). Each attempt costs one extra evaluation of
    /// the map — it is kept only when it verifiably reduces the residual.
    pub aitken_period: usize,
    /// Multiplier applied to the damping factor after an iteration whose
    /// raw residual shrank (capped at 1, the undamped Picard step).
    pub grow: f64,
    /// Multiplier applied after an iteration whose raw residual grew.
    pub shrink: f64,
    /// Damping floor: `θ` never drops below this.
    pub theta_min: f64,
}

impl Default for AccelerationConfig {
    fn default() -> Self {
        Self {
            aitken_period: 4,
            grow: 1.25,
            shrink: 0.5,
            theta_min: 0.05,
        }
    }
}

/// Damped fixed-point iteration with adaptive damping and periodic,
/// verified Aitken Δ² extrapolation.
///
/// Behaves like [`fixed_point`] — same map contract, same convergence
/// test (∞-norm of the damped update below `config.tolerance`), same
/// errors — but adapts the damping factor to the observed contraction
/// (growing it toward the undamped iteration while the residual shrinks,
/// backing off when it grows) and periodically extrapolates the iterate
/// sequence component-wise. Every extrapolation is *verified* by one map
/// evaluation and discarded unless it reduces the raw residual, so the
/// returned vector satisfies the same equations to the same tolerance as
/// the plain iteration's.
///
/// `iterations` in the outcome counts **map evaluations** (including
/// discarded verification evaluations), making iteration counts directly
/// comparable with [`fixed_point`], where one iteration is one evaluation.
///
/// Warm starts compose naturally: pass the previous sweep point's
/// converged vector as `initial`.
///
/// With a `trace`, one sample is recorded per main-loop evaluation (raw
/// residual and the adaptive θ in force), plus one per Aitken Δ²
/// verification recording the candidate's residual and whether it was
/// accepted (a verification that errored records an infinite residual,
/// rejected). The iteration is identical with or without a trace.
///
/// # Errors
///
/// * [`QueueingError::NoConvergence`] after `max_iterations` evaluations.
/// * [`QueueingError::Diverged`] from the divergence watchdog (sustained
///   monotone growth of the raw residual — the accelerated loop gets its
///   Aitken chances first, since the watchdog streak is far longer than
///   the extrapolation period).
/// * Any error returned by `f` from the main iteration (an error during an
///   Aitken verification just discards the extrapolation: the candidate
///   stepped outside the map's stable region, e.g. past a queue's
///   saturation, which is exactly the case the verification exists to
///   catch).
///
/// The trace is finished with `converged = false` on
/// [`QueueingError::NoConvergence`] or [`QueueingError::Diverged`] and
/// left unfinished on a map error.
pub fn fixed_point_accelerated<F>(
    initial: &[f64],
    config: FixedPointConfig,
    accel: AccelerationConfig,
    mut f: F,
    mut trace: Option<&mut SolverTrace>,
) -> Result<FixedPointOutcome>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<()>,
{
    let mut theta = config.damping.clamp(f64::MIN_POSITIVE, 1.0);
    let mut x = initial.to_vec();
    let mut fx = vec![0.0; x.len()];
    // Two previous iterates for the Δ² extrapolation.
    let mut x1 = vec![0.0; x.len()];
    let mut x2 = vec![0.0; x.len()];
    let mut history = 0usize;
    let mut candidate = vec![0.0; x.len()];
    let mut prev_raw = f64::INFINITY;
    let mut evals = 0usize;
    let mut since_aitken = 0usize;
    let mut watch = DivergenceWatch::new();
    // After an accepted extrapolation `fx` already holds `F(x)` from the
    // verification evaluation — don't pay for it twice.
    let mut fx_is_current = false;

    while evals < config.max_iterations {
        if fx_is_current {
            fx_is_current = false;
        } else {
            f(&x, &mut fx)?;
            evals += 1;
        }
        let mut raw = 0.0f64;
        for (xi, fxi) in x.iter().zip(fx.iter()) {
            raw = raw.max((fxi - xi).abs());
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(evals, raw, theta, AitkenStep::NotAttempted);
        }
        // Damped update; convergence on the update norm, as in
        // `fixed_point`.
        if theta * raw < config.tolerance {
            for (xi, fxi) in x.iter_mut().zip(fx.iter()) {
                *xi = (1.0 - theta) * *xi + theta * *fxi;
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.finish(true, theta * raw);
            }
            return Ok(FixedPointOutcome {
                values: x,
                iterations: evals,
                residual: theta * raw,
            });
        }
        if watch.observe(raw) {
            if let Some(tr) = trace.as_deref_mut() {
                tr.finish(false, raw);
            }
            return Err(QueueingError::Diverged {
                iterations: evals,
                residual: raw,
            });
        }
        x2.copy_from_slice(&x1);
        x1.copy_from_slice(&x);
        history += 1;
        for (xi, fxi) in x.iter_mut().zip(fx.iter()) {
            *xi = (1.0 - theta) * *xi + theta * *fxi;
        }
        // Adapt damping to the observed contraction.
        theta = if raw > prev_raw {
            (theta * accel.shrink).max(accel.theta_min)
        } else {
            (theta * accel.grow).min(1.0)
        };
        prev_raw = raw;

        // Periodic verified Aitken Δ² extrapolation over (x2, x1, x).
        since_aitken += 1;
        if accel.aitken_period > 0
            && since_aitken >= accel.aitken_period
            && history >= 2
            && evals + 1 < config.max_iterations
        {
            since_aitken = 0;
            let mut usable = false;
            for i in 0..x.len() {
                let d1 = x1[i] - x2[i];
                let d2 = x[i] - x1[i];
                let den = d2 - d1;
                // Guard near-stationary components: extrapolating a tiny
                // denominator amplifies rounding noise.
                if den.abs() > 1e-12 * (1.0 + x[i].abs()) {
                    let extrapolated = x[i] - d2 * d2 / den;
                    if extrapolated.is_finite() {
                        candidate[i] = extrapolated;
                        usable = true;
                        continue;
                    }
                }
                candidate[i] = x[i];
            }
            if usable {
                // One evaluation verifies the candidate; keep it only if it
                // is closer to the fixed point than the current iterate.
                match f(&candidate, &mut fx) {
                    Ok(()) => {
                        evals += 1;
                        let mut cand_raw = 0.0f64;
                        for (ci, fxi) in candidate.iter().zip(fx.iter()) {
                            cand_raw = cand_raw.max((fxi - ci).abs());
                        }
                        let accepted = cand_raw < prev_raw;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.record(
                                evals,
                                cand_raw,
                                theta,
                                if accepted {
                                    AitkenStep::Accepted
                                } else {
                                    AitkenStep::Rejected
                                },
                            );
                        }
                        if accepted {
                            x.copy_from_slice(&candidate);
                            prev_raw = cand_raw;
                            // The jump invalidates the difference history;
                            // `fx` is already `F(x)` for the new `x`.
                            history = 0;
                            fx_is_current = true;
                            watch.reset_streak();
                        }
                    }
                    // The extrapolation left the map's stable region
                    // (e.g. drove a queue past saturation): discard it.
                    Err(_) => {
                        evals += 1;
                        history = 0;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.record(evals, f64::INFINITY, theta, AitkenStep::Rejected);
                        }
                    }
                }
            }
        }
    }
    let mut residual = 0.0f64;
    f(&x, &mut fx)?;
    for (xi, fxi) in x.iter().zip(fx.iter()) {
        residual = residual.max((theta * (fxi - xi)).abs());
    }
    if let Some(tr) = trace {
        tr.finish(false, residual);
    }
    Err(QueueingError::NoConvergence {
        iterations: config.max_iterations,
        residual,
    })
}

/// Configuration for [`bisect_increasing`].
#[derive(Debug, Clone, Copy)]
pub struct BisectionConfig {
    /// Absolute tolerance on the argument.
    pub x_tolerance: f64,
    /// Maximum number of halvings.
    pub max_iterations: usize,
}

impl Default for BisectionConfig {
    fn default() -> Self {
        Self {
            x_tolerance: 1e-12,
            max_iterations: 200,
        }
    }
}

/// Finds the zero crossing of a monotonically increasing function `g` on
/// `[lo, hi]`, i.e. the point where `g` changes sign from negative to
/// non-negative.
///
/// Used for saturation scans where `g(λ) = x̄₀,₁(λ) − 1/λ` (paper Eq. 26):
/// `g` is negative below saturation and positive above it. `g` may return
/// an error above saturation (the model's queues blow up); such errors are
/// treated as "`g` is positive there", which makes the solver robust to the
/// model refusing to evaluate past the knee.
///
/// # Errors
///
/// * [`QueueingError::BracketError`] when `g(lo)` is already non-negative
///   (no crossing in the interval) — except that an error at `lo` itself is
///   propagated, since it means the caller bracketed blindly.
pub fn bisect_increasing<G>(lo: f64, hi: f64, config: BisectionConfig, mut g: G) -> Result<f64>
where
    G: FnMut(f64) -> Result<f64>,
{
    if lo >= hi || !lo.is_finite() || !hi.is_finite() {
        return Err(QueueingError::BracketError { lo, hi });
    }
    let g_lo = g(lo)?;
    if g_lo >= 0.0 {
        return Err(QueueingError::BracketError { lo, hi });
    }
    // Above saturation the model may fail to evaluate; treat failure as
    // "crossed" (positive).
    let sign = |v: Result<f64>| -> f64 {
        match v {
            Ok(y) => y,
            Err(_) => f64::INFINITY,
        }
    };
    let mut a = lo;
    let mut b = hi;
    if sign(g(hi)) < 0.0 {
        // No crossing within [lo, hi]: the function never reaches zero.
        return Err(QueueingError::BracketError { lo, hi });
    }
    for _ in 0..config.max_iterations {
        let mid = 0.5 * (a + b);
        if b - a < config.x_tolerance {
            return Ok(mid);
        }
        if sign(g(mid)) < 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_solves_scalar_contraction() {
        // x = cos(x) has the Dottie number ≈ 0.7390851332151607 as fixed point.
        let out = fixed_point(
            &[0.0],
            FixedPointConfig::default(),
            |x, fx| {
                fx[0] = x[0].cos();
                Ok(())
            },
            None,
        )
        .unwrap();
        assert!((out.values[0] - 0.739_085_133_215_160_7).abs() < 1e-8);
        assert!(out.iterations > 0);
    }

    #[test]
    fn fixed_point_solves_linear_system() {
        // x = A x + b with spectral radius < 1: x0 = 0.5 x1 + 1, x1 = 0.3 x0 + 2.
        // Solution: x0 = 1 + 0.5(2 + 0.3 x0) ⇒ x0(1 − 0.15) = 2 ⇒ x0 = 2/0.85.
        let out = fixed_point(
            &[0.0, 0.0],
            FixedPointConfig::default(),
            |x, fx| {
                fx[0] = 0.5 * x[1] + 1.0;
                fx[1] = 0.3 * x[0] + 2.0;
                Ok(())
            },
            None,
        )
        .unwrap();
        let x0 = 2.0 / 0.85;
        let x1 = 0.3 * x0 + 2.0;
        assert!((out.values[0] - x0).abs() < 1e-8);
        assert!((out.values[1] - x1).abs() < 1e-8);
    }

    #[test]
    fn fixed_point_reports_divergence_early() {
        // x = 2x + 1 diverges; the watchdog (40-iteration monotone growth
        // streak past 1e6×) must fire before the 10_000-iteration budget
        // is spent and classify the failure as Diverged, not NoConvergence.
        let err = fixed_point(
            &[1.0],
            FixedPointConfig::default(),
            |x, fx| {
                fx[0] = 2.0 * x[0] + 1.0;
                Ok(())
            },
            None,
        )
        .unwrap_err();
        match err {
            QueueingError::Diverged {
                iterations,
                residual,
            } => {
                assert!(
                    iterations < 100,
                    "watchdog should fire early, ran {iterations}"
                );
                assert!(residual > 1e6);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn fixed_point_reports_nonconvergence_when_budget_expires_first() {
        // Same divergent map, but a budget too small for the watchdog's
        // 40-iteration streak: the old NoConvergence classification stands.
        let cfg = FixedPointConfig {
            max_iterations: 20,
            ..Default::default()
        };
        let err = fixed_point(
            &[1.0],
            cfg,
            |x, fx| {
                fx[0] = 2.0 * x[0] + 1.0;
                Ok(())
            },
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::NoConvergence { .. }));
    }

    #[test]
    fn watchdog_traps_non_finite_iterates_immediately() {
        // A map that manufactures infinity: without the guard the
        // iteration would grind NaN arithmetic for the whole budget.
        let err = fixed_point(
            &[1.0],
            FixedPointConfig::default(),
            |x, fx| {
                fx[0] = x[0] * 1e308 + 1e308;
                Ok(())
            },
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::Diverged { .. }));
    }

    #[test]
    fn watchdog_does_not_perturb_converging_solves() {
        // A slow contraction whose residual shrinks non-monotonically
        // would be the false-positive risk; rate-0.999 Picard is the
        // slowest thing the model ever sees and must still converge to
        // the same answer as before the watchdog existed.
        let cfg = FixedPointConfig {
            tolerance: 1e-10,
            max_iterations: 200_000,
            damping: 0.5,
        };
        let out = fixed_point(
            &[0.0],
            cfg,
            |x, fx| {
                fx[0] = 0.999 * x[0] + 1.0;
                Ok(())
            },
            None,
        )
        .unwrap();
        assert!((out.values[0] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_point_propagates_map_errors() {
        let err = fixed_point(
            &[1.0],
            FixedPointConfig::default(),
            |_x, _fx| Err(QueueingError::Saturated { utilization: 1.1 }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::Saturated { .. }));
    }

    #[test]
    fn fixed_point_damping_still_converges() {
        for damping in [0.1, 0.5, 1.0] {
            let cfg = FixedPointConfig {
                damping,
                ..Default::default()
            };
            let out = fixed_point(
                &[0.0],
                cfg,
                |x, fx| {
                    fx[0] = 0.5 * x[0] + 3.0;
                    Ok(())
                },
                None,
            )
            .unwrap();
            assert!((out.values[0] - 6.0).abs() < 1e-7, "damping {damping}");
        }
    }

    #[test]
    fn accelerated_matches_plain_fixed_point() {
        // Same contraction, same tolerance ⇒ same answer (to tolerance),
        // for scalar and vector maps, from cold and warm starts.
        let map = |x: &[f64], fx: &mut [f64]| {
            fx[0] = 0.5 * x[1] + 1.0;
            fx[1] = 0.3 * x[0] + 2.0;
            Ok(())
        };
        let plain = fixed_point(&[0.0, 0.0], FixedPointConfig::default(), map, None).unwrap();
        let accel = fixed_point_accelerated(
            &[0.0, 0.0],
            FixedPointConfig::default(),
            AccelerationConfig::default(),
            map,
            None,
        )
        .unwrap();
        for (a, b) in plain.values.iter().zip(&accel.values) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // A warm start at the answer converges in one evaluation.
        let warm = fixed_point_accelerated(
            &plain.values,
            FixedPointConfig::default(),
            AccelerationConfig::default(),
            map,
            None,
        )
        .unwrap();
        assert_eq!(warm.iterations, 1, "already-converged start");
    }

    #[test]
    fn acceleration_reduces_iterations_on_slow_contractions() {
        // A stiff linear contraction (rate 0.99) where plain damped Picard
        // crawls: Aitken extrapolation must cut evaluations substantially.
        let map = |x: &[f64], fx: &mut [f64]| {
            fx[0] = 0.99 * x[0] + 1.0;
            Ok(())
        };
        let cfg = FixedPointConfig {
            tolerance: 1e-10,
            max_iterations: 100_000,
            damping: 0.5,
        };
        let plain = fixed_point(&[0.0], cfg, map, None).unwrap();
        let accel =
            fixed_point_accelerated(&[0.0], cfg, AccelerationConfig::default(), map, None).unwrap();
        assert!((plain.values[0] - 100.0).abs() < 1e-6);
        assert!((accel.values[0] - 100.0).abs() < 1e-6);
        assert!(
            accel.iterations * 5 < plain.iterations,
            "accelerated {} vs plain {} evaluations",
            accel.iterations,
            plain.iterations
        );
    }

    #[test]
    fn accelerated_survives_map_errors_during_extrapolation() {
        // The map fails above x = 200; Aitken on a 0.99-rate contraction
        // overshoots early, so the verification path must discard failed
        // candidates and still converge.
        let map = |x: &[f64], fx: &mut [f64]| {
            if x[0] > 200.0 {
                return Err(QueueingError::Saturated { utilization: x[0] });
            }
            fx[0] = 0.99 * x[0] + 1.0;
            Ok(())
        };
        let cfg = FixedPointConfig {
            tolerance: 1e-10,
            max_iterations: 100_000,
            damping: 0.5,
        };
        let out =
            fixed_point_accelerated(&[0.0], cfg, AccelerationConfig::default(), map, None).unwrap();
        assert!((out.values[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn accelerated_finds_the_fixed_point_of_a_picard_divergent_map() {
        // x = 2x + 1 diverges under Picard iteration, but its (repelling)
        // fixed point x = −1 exists and Aitken Δ² is exact on linear maps:
        // the verified extrapolation lands on it and the residual check
        // accepts it. The outcome genuinely satisfies the equation.
        let out = fixed_point_accelerated(
            &[1.0],
            FixedPointConfig::default(),
            AccelerationConfig::default(),
            |x, fx| {
                fx[0] = 2.0 * x[0] + 1.0;
                Ok(())
            },
            None,
        )
        .unwrap();
        assert!((out.values[0] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn accelerated_reports_nonconvergence_and_propagates_errors() {
        let cfg = FixedPointConfig {
            max_iterations: 50,
            ..Default::default()
        };
        // x ← x + 1 has no fixed point at all: the translation defeats
        // both damping and extrapolation (Δ² denominator is exactly 0).
        let err = fixed_point_accelerated(
            &[1.0],
            cfg,
            AccelerationConfig::default(),
            |x, fx| {
                fx[0] = x[0] + 1.0;
                Ok(())
            },
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::NoConvergence { .. }));
        let err = fixed_point_accelerated(
            &[1.0],
            FixedPointConfig::default(),
            AccelerationConfig::default(),
            |_x, _fx| Err(QueueingError::Saturated { utilization: 1.1 }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::Saturated { .. }));
    }

    #[test]
    fn traced_solve_is_identical_and_records_iterations() {
        let map = |x: &[f64], fx: &mut [f64]| {
            fx[0] = 0.5 * x[1] + 1.0;
            fx[1] = 0.3 * x[0] + 2.0;
            Ok(())
        };
        let plain = fixed_point(&[0.0, 0.0], FixedPointConfig::default(), map, None).unwrap();
        let mut tr = SolverTrace::new();
        let traced =
            fixed_point(&[0.0, 0.0], FixedPointConfig::default(), map, Some(&mut tr)).unwrap();
        // The trace is observation only: bit-identical outcome.
        assert_eq!(plain.iterations, traced.iterations);
        for (a, b) in plain.values.iter().zip(&traced.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.residual.to_bits(), traced.residual.to_bits());
        assert_eq!(tr.len(), traced.iterations);
        assert!(tr.converged);
        assert_eq!(tr.final_residual, traced.residual);
        // Raw residuals decrease overall on a contraction.
        assert!(tr.samples.last().unwrap().residual < tr.samples[0].residual);
        // Fixed damping is recorded as configured.
        assert!(tr.samples.iter().all(|s| s.damping == 0.5));
        assert!(tr
            .samples
            .iter()
            .all(|s| s.aitken == AitkenStep::NotAttempted));
    }

    #[test]
    fn traced_accelerated_solve_is_identical_and_records_aitken() {
        // Stiff contraction: acceleration fires and accepts Aitken steps.
        let map = |x: &[f64], fx: &mut [f64]| {
            fx[0] = 0.99 * x[0] + 1.0;
            Ok(())
        };
        let cfg = FixedPointConfig {
            tolerance: 1e-10,
            max_iterations: 100_000,
            damping: 0.5,
        };
        let plain =
            fixed_point_accelerated(&[0.0], cfg, AccelerationConfig::default(), map, None).unwrap();
        let mut tr = SolverTrace::new();
        let traced = fixed_point_accelerated(
            &[0.0],
            cfg,
            AccelerationConfig::default(),
            map,
            Some(&mut tr),
        )
        .unwrap();
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.values[0].to_bits(), traced.values[0].to_bits());
        assert!(tr.converged);
        assert!(tr.aitken_accepts() > 0, "stiff map must accept Δ² steps");
        // Adaptive damping: θ must move off its initial value somewhere.
        assert!(tr.samples.iter().any(|s| s.damping != 0.5));
        assert!(!tr.is_empty());
    }

    #[test]
    fn traced_nonconvergence_finishes_trace_unconverged() {
        let cfg = FixedPointConfig {
            max_iterations: 20,
            ..Default::default()
        };
        let mut tr = SolverTrace::new();
        let err = fixed_point(
            &[1.0],
            cfg,
            |x, fx| {
                fx[0] = 2.0 * x[0] + 1.0;
                Ok(())
            },
            Some(&mut tr),
        )
        .unwrap_err();
        assert!(matches!(err, QueueingError::NoConvergence { .. }));
        assert!(!tr.converged);
        assert_eq!(tr.len(), 20);
        assert!(tr.final_residual > 0.0);
    }

    #[test]
    fn bisect_finds_simple_root() {
        // g(x) = x² − 2 on [0, 2] → √2.
        let root =
            bisect_increasing(0.0, 2.0, BisectionConfig::default(), |x| Ok(x * x - 2.0)).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_error_as_positive_region() {
        // g errors above 1.0 (like a saturated model); root of x−0.5 is 0.5.
        let root = bisect_increasing(0.0, 2.0, BisectionConfig::default(), |x| {
            if x > 1.0 {
                Err(QueueingError::Saturated { utilization: x })
            } else {
                Ok(x - 0.5)
            }
        })
        .unwrap();
        assert!((root - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_brackets() {
        // g(lo) already positive.
        assert!(matches!(
            bisect_increasing(1.0, 2.0, BisectionConfig::default(), Ok),
            Err(QueueingError::BracketError { .. })
        ));
        // Never crosses.
        assert!(matches!(
            bisect_increasing(0.0, 1.0, BisectionConfig::default(), |_| Ok(-1.0)),
            Err(QueueingError::BracketError { .. })
        ));
        // Degenerate interval.
        assert!(bisect_increasing(1.0, 1.0, BisectionConfig::default(), Ok).is_err());
        // Error at lo propagates.
        assert!(
            bisect_increasing(0.0, 1.0, BisectionConfig::default(), |_| Err::<f64, _>(
                QueueingError::InvalidServerCount
            ))
            .is_err()
        );
    }

    #[test]
    fn bisect_respects_tolerance() {
        let cfg = BisectionConfig {
            x_tolerance: 1e-3,
            max_iterations: 1000,
        };
        let root = bisect_increasing(0.0, 10.0, cfg, |x| Ok(x - 3.3)).unwrap();
        assert!((root - 3.3).abs() < 1e-3);
    }
}
