//! Closed-form butterfly fat-tree model (paper §3).
//!
//! The butterfly fat-tree's channel-dependency structure is a DAG, so the
//! service-time equations resolve in one backward sweep:
//!
//! 1. **Down chain** (Eqs. 16–19): start at the ejection channels
//!    (`x̄₁,₀ = s/f`, deterministic because sinks consume one flit per
//!    cycle) and work up: each down channel's service time adds the wait it
//!    will suffer at the next down channel.
//! 2. **Up chain** (Eqs. 20–24): start at the topmost up channel (whose
//!    continuation is all-downward) and work towards the injection channel,
//!    mixing the up-continuation (through the `p`-server up-link station)
//!    and the down-continuation (through `c−1` sibling channels) with the
//!    turn probabilities of Eq. 12/13.
//!
//! Waiting times use M/G/1 (Eq. 6) for single links and M/G/p (Eq. 8 at
//! `p = 2`, Hokstad) for up-link bundles, with the **combined** bundle rate
//! `p·λ` per the manuscript's margin correction to Eqs. 21/23. Blocking
//! corrections follow Eq. 10. Average latency is Eq. 25 and saturation
//! throughput Eq. 26.
//!
//! All rates are per processor (`λ₀`, messages/cycle) or per channel; the
//! *flit load* of the paper's Figure 3 x-axis is `λ₀·(s/f)` flits/cycle/PE.

use crate::error::ModelError;
use crate::options::ModelOptions;
use crate::throughput::{self, SaturationPoint};
use crate::Result;
use wormsim_queueing::{mg1, mgm};
use wormsim_topology::bft::BftParams;

/// Decomposition of the paper's average latency (Eq. 25):
/// `L = W₀,₁ + x̄₀,₁ + D̄ − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Mean wait in the source queue for the injection channel, `W₀,₁`.
    pub w_injection: f64,
    /// Mean service time of the injection channel, `x̄₀,₁` (includes all
    /// downstream blocking under the long-worm assumption).
    pub x_injection: f64,
    /// Average message distance `D̄` in channels.
    pub avg_distance: f64,
    /// Total average latency `L`.
    pub total: f64,
}

/// Per-level channel quantities resolved by the model, for the
/// channel-audit experiment (per-level comparison against the simulator).
///
/// Index conventions: `down[l]` describes channel class `⟨l, l−1⟩` for
/// `l ∈ [1, n]` (`down[0]` unused); `up[l]` describes `⟨l, l+1⟩` for
/// `l ∈ [0, n−1]` (`up[0]` is the injection channel `⟨0, 1⟩`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelAudit {
    /// Per-channel arrival rate λ for down classes (`down[l]` ↔ `⟨l,l−1⟩`).
    pub lambda_down: Vec<f64>,
    /// Mean service time x̄ for down classes.
    pub x_down: Vec<f64>,
    /// Mean waiting time W for down classes.
    pub w_down: Vec<f64>,
    /// Per-channel arrival rate λ for up classes (`up[l]` ↔ `⟨l,l+1⟩`).
    pub lambda_up: Vec<f64>,
    /// Mean service time x̄ for up classes.
    pub x_up: Vec<f64>,
    /// Mean waiting time W for up classes (station-level for bundles).
    pub w_up: Vec<f64>,
}

/// The closed-form butterfly fat-tree model of paper §3.
#[derive(Debug, Clone, Copy)]
pub struct BftModel {
    params: BftParams,
    worm_flits: f64,
    options: ModelOptions,
}

impl BftModel {
    /// Model for `params` with worms of `worm_flits` flits (`s/f` in the
    /// paper), using the paper's options.
    #[must_use]
    pub fn new(params: BftParams, worm_flits: f64) -> Self {
        Self::with_options(params, worm_flits, ModelOptions::paper())
    }

    /// Model with explicit (possibly ablated) options.
    #[must_use]
    pub fn with_options(params: BftParams, worm_flits: f64, options: ModelOptions) -> Self {
        assert!(
            worm_flits > 0.0 && worm_flits.is_finite(),
            "worm length must be positive"
        );
        Self {
            params,
            worm_flits,
            options,
        }
    }

    /// The topology parameters.
    #[must_use]
    pub fn params(&self) -> &BftParams {
        &self.params
    }

    /// Worm length in flits.
    #[must_use]
    pub fn worm_flits(&self) -> f64 {
        self.worm_flits
    }

    /// The model options in effect.
    #[must_use]
    pub fn options(&self) -> &ModelOptions {
        &self.options
    }

    /// Per-channel arrival rate on up class `⟨l, l+1⟩` (Eq. 14 generalized):
    /// `λ_{l,l+1} = λ₀·P↑_l·(c/p)ˡ`, for `l ∈ [0, n−1]` (`l = 0` is the
    /// injection channel with rate `λ₀`).
    #[must_use]
    pub fn lambda_up(&self, l: u32, lambda0: f64) -> f64 {
        if l == 0 {
            return lambda0;
        }
        let ratio = self.params.children() as f64 / self.params.parents() as f64;
        lambda0 * self.params.p_up(l) * ratio.powi(l as i32)
    }

    /// Per-channel arrival rate on down class `⟨l, l−1⟩` (Eq. 15):
    /// equals the up rate of the same level pair; `l ∈ [1, n]`.
    #[must_use]
    pub fn lambda_down(&self, l: u32, lambda0: f64) -> f64 {
        self.lambda_up(l - 1, lambda0)
    }

    /// Wormhole SCV per the configured mode.
    fn scv(&self, mean: f64) -> f64 {
        self.options.scv.scv(mean, self.worm_flits)
    }

    /// M/G/1 wait tagged with its channel class on error.
    fn w1(&self, class: &str, lambda: f64, x: f64) -> Result<f64> {
        mg1::waiting_time(lambda, x, self.scv(x)).map_err(|e| ModelError::at(class, e))
    }

    /// Up-bundle wait: M/G/p at the combined rate `p·λ` (paper Eqs. 21/23
    /// with the margin correction), or per-link M/G/1 under the
    /// single-server ablation.
    fn w_up_bundle(&self, class: &str, lambda_per_link: f64, x: f64) -> Result<f64> {
        let p = self.params.parents() as u32;
        if self.options.multi_server_up && p > 1 {
            mgm::waiting_time(p, f64::from(p) * lambda_per_link, x, self.scv(x))
                .map_err(|e| ModelError::at(class, e))
        } else {
            mg1::waiting_time(lambda_per_link, x, self.scv(x)).map_err(|e| ModelError::at(class, e))
        }
    }

    /// Blocking factor `P(i|j)` of Eq. 10 (or 1 under the ablation), in the
    /// per-channel-rate form where the server count cancels:
    /// `P = 1 − (λ_in/λ_out_per_channel)·R_station`, clamped to `[0, 1]`.
    ///
    /// For multi-server stations `r_station` is the probability of routing
    /// to the *station*; under the single-server ablation the caller passes
    /// the per-link probability.
    fn blocking(&self, lambda_in: f64, lambda_out_per_channel: f64, r_station: f64) -> f64 {
        if !self.options.blocking_correction {
            return 1.0;
        }
        if lambda_out_per_channel <= 0.0 {
            return 1.0;
        }
        (1.0 - lambda_in / lambda_out_per_channel * r_station).clamp(0.0, 1.0)
    }

    /// Rejects entry points that only have single-lane semantics when the
    /// model was configured with `lanes > 1` — silently returning `L = 1`
    /// numbers from a multi-lane model would be inconsistent with
    /// [`Self::latency_at_message_rate`], which does honour the lanes.
    fn require_single_lane(&self, what: &str) -> Result<()> {
        if self.options.lanes == 0 {
            // Match the framework's validation: a zero-lane channel cannot
            // carry traffic, and silently treating it as single-lane would
            // let the same options error on one entry point and resolve on
            // another.
            return Err(ModelError::Spec(
                "lane count must be at least 1 (ModelOptions::lanes)".into(),
            ));
        }
        if self.options.lanes > 1 {
            return Err(ModelError::Spec(format!(
                "{what} has no multi-lane analogue yet (lanes = {}); the closed-form \
                 Eqs. 14–24/26 are single-lane — see ROADMAP lanes follow-ons",
                self.options.lanes
            )));
        }
        Ok(())
    }

    /// Resolves every per-level service and waiting time at source message
    /// rate `lambda0` (messages/cycle/PE).
    ///
    /// # Errors
    ///
    /// [`ModelError::Queueing`] tagged with the first saturating channel
    /// class when `lambda0` is beyond the network's capacity;
    /// [`ModelError::Spec`] when the options carry `lanes > 1` (the
    /// per-level audit is the closed single-lane recurrence).
    pub fn audit_at_message_rate(&self, lambda0: f64) -> Result<ChannelAudit> {
        self.require_single_lane("audit_at_message_rate")?;
        let mut audit = self.resolve_chains(lambda0)?;
        // Finally Eq. 24: injection-channel wait. This is the step that
        // diverges exactly at the saturation point x̄₀,₁ = 1/λ₀ (where the
        // source queue's utilization reaches 1).
        audit.w_up[0] = self.w1("<0,1>", audit.lambda_up[0], audit.x_up[0])?;
        Ok(audit)
    }

    /// Resolves the down and up chains (Eqs. 16–23) but not the final
    /// injection wait (Eq. 24); `w_up[0]` is left at 0. This keeps the
    /// source service time evaluable *at* the saturation point, where the
    /// injection queue itself is exactly critical.
    fn resolve_chains(&self, lambda0: f64) -> Result<ChannelAudit> {
        if !(lambda0.is_finite() && lambda0 >= 0.0) {
            return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
        }
        let n = self.params.levels();
        let c = self.params.children() as f64;
        let s = self.worm_flits;
        let nl = n as usize;

        let lambda_down: Vec<f64> = (0..=nl)
            .map(|l| {
                if l == 0 {
                    0.0
                } else {
                    self.lambda_down(l as u32, lambda0)
                }
            })
            .collect();
        let lambda_up: Vec<f64> = (0..nl).map(|l| self.lambda_up(l as u32, lambda0)).collect();

        // ---- Down chain: x̄_{1,0} = s (Eq. 16), then Eq. 18 upward. ----
        let mut x_down = vec![0.0; nl + 1];
        let mut w_down = vec![0.0; nl + 1];
        x_down[1] = s;
        w_down[1] = self.w1("<1,0>", lambda_down[1], x_down[1])?;
        for l in 1..nl {
            // Channel ⟨l+1, l⟩ forwards to one of c children, R = 1/c each.
            let pb = self.blocking(lambda_down[l + 1], lambda_down[l], 1.0 / c);
            x_down[l + 1] = x_down[l] + pb * w_down[l];
            let class = format!("<{},{}>", l + 1, l);
            w_down[l + 1] = self.w1(&class, lambda_down[l + 1], x_down[l + 1])?;
        }

        // ---- Up chain: Eq. 20 at the top, Eq. 22 downwards. ----
        let mut x_up = vec![0.0; nl];
        let mut w_up = vec![0.0; nl];
        if n >= 2 {
            // Top up channel ⟨n−1, n⟩: continuation is all-downward through
            // c−1 sibling channels at the root, R = 1/(c−1) each.
            let top = nl - 1;
            let pb = self.blocking(lambda_up[top], lambda_down[nl], 1.0 / (c - 1.0));
            x_up[top] = x_down[nl] + pb * w_down[nl];
            let class = format!("<{},{}>", top, nl);
            w_up[top] = self.w_up_bundle(&class, lambda_up[top], x_up[top])?;
        }
        // Eq. 22 for ⟨l−1, l⟩, l from n−1 down to 1 (l−1 down to 0).
        for l in (1..nl).rev() {
            let lu = l as u32;
            let p_up = self.params.p_up(lu);
            let p_down = self.params.p_down(lu);
            // Up branch: the p-link bundle ⟨l, l+1⟩, station probability P↑.
            let r_up_station = if self.options.multi_server_up {
                p_up
            } else {
                // Per-link probability when links are independent queues.
                p_up / self.params.parents() as f64
            };
            let pb_up = self.blocking(lambda_up[l - 1], lambda_up[l], r_up_station);
            // Down branch: c−1 sibling channels ⟨l, l−1⟩, R = P↓/(c−1) each.
            let pb_down = self.blocking(lambda_up[l - 1], lambda_down[l], p_down / (c - 1.0));
            x_up[l - 1] =
                p_up * (x_up[l] + pb_up * w_up[l]) + p_down * (x_down[l] + pb_down * w_down[l]);
            if l > 1 {
                let class = format!("<{},{}>", l - 1, l);
                w_up[l - 1] = self.w_up_bundle(&class, lambda_up[l - 1], x_up[l - 1])?;
            }
            // l == 1: the injection channel's wait (Eq. 24) is computed by
            // the caller; see resolve_chains docs.
        }
        if n == 1 {
            // Degenerate single-switch network: all traffic turns around at
            // level 1 through c−1 siblings.
            let pb = self.blocking(lambda_up[0], lambda_down[1], 1.0 / (c - 1.0));
            x_up[0] = x_down[1] + pb * w_down[1];
        }

        Ok(ChannelAudit {
            lambda_down,
            x_down,
            w_down,
            lambda_up,
            x_up,
            w_up,
        })
    }

    /// Average latency at source message rate `lambda0` (Eq. 25).
    ///
    /// The hand-derived recurrences are the paper's single-lane model;
    /// when the options carry `lanes > 1` the computation is delegated to
    /// the general framework spec ([`crate::framework::bft_spec`]), which
    /// implements the multi-lane extension — at `lanes = 1` the two agree
    /// to floating-point rounding (regression-tested) and the closed form
    /// is used directly.
    ///
    /// # Errors
    ///
    /// Saturation or invalid-rate errors from the underlying resolution.
    pub fn latency_at_message_rate(&self, lambda0: f64) -> Result<LatencyBreakdown> {
        if self.options.lanes > 1 {
            if !(lambda0.is_finite() && lambda0 >= 0.0) {
                return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
            }
            let spec = crate::framework::bft_spec(&self.params, self.worm_flits, lambda0);
            return spec.latency(&self.options, None);
        }
        let audit = self.audit_at_message_rate(lambda0)?;
        let w = audit.w_up[0];
        let x = audit.x_up[0];
        let d = self.params.average_distance();
        Ok(LatencyBreakdown {
            w_injection: w,
            x_injection: x,
            avg_distance: d,
            total: w + x + d - 1.0,
        })
    }

    /// Average latency at a *flit* load (flits/cycle/PE, the paper's
    /// Figure 3 x-axis): message rate `λ₀ = load/(s/f)`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::latency_at_message_rate`].
    pub fn latency_at_flit_load(&self, flit_load: f64) -> Result<LatencyBreakdown> {
        self.latency_at_message_rate(flit_load / self.worm_flits)
    }

    /// Source-channel service time `x̄₀,₁(λ₀)`, the quantity equated with
    /// `1/λ₀` at saturation (Eq. 26).
    ///
    /// # Errors
    ///
    /// Same as [`Self::audit_at_message_rate`] (single-lane only).
    pub fn source_service_time(&self, lambda0: f64) -> Result<f64> {
        self.require_single_lane("source_service_time")?;
        Ok(self.resolve_chains(lambda0)?.x_up[0])
    }

    /// Maximum throughput: the saturation point where `x̄₀,₁ = 1/λ₀`
    /// (paper §3.5).
    ///
    /// # Errors
    ///
    /// [`ModelError::Saturation`] if no saturation point can be bracketed;
    /// [`ModelError::Spec`] when the options carry `lanes > 1` — Eq. 26 is
    /// single-lane, and the multi-lane knee genuinely sits elsewhere (the
    /// simulator shows it moving outward with `L`; see `repro lanes`).
    pub fn saturation(&self) -> Result<SaturationPoint> {
        self.require_single_lane("saturation")?;
        throughput::saturation_point(self.worm_flits, |lambda0| self.source_service_time(lambda0))
    }

    /// Saturation expressed as flit load (flits/cycle/PE), for direct
    /// comparison with Figure 3's knees.
    ///
    /// # Errors
    ///
    /// Same as [`Self::saturation`].
    pub fn saturation_flit_load(&self) -> Result<f64> {
        Ok(self.saturation()?.flit_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ScvMode;

    fn paper_model(n_procs: usize, s: f64) -> BftModel {
        BftModel::new(BftParams::paper(n_procs).unwrap(), s)
    }

    #[test]
    fn zero_load_latency_is_s_plus_dbar_minus_one() {
        for (n_procs, s) in [(64usize, 16.0), (256, 32.0), (1024, 64.0)] {
            let m = paper_model(n_procs, s);
            let lat = m.latency_at_message_rate(0.0).unwrap();
            let expect = s + m.params().average_distance() - 1.0;
            assert!(
                (lat.total - expect).abs() < 1e-12,
                "N={n_procs}, s={s}: {} vs {expect}",
                lat.total
            );
            assert_eq!(lat.w_injection, 0.0);
            assert!((lat.x_injection - s).abs() < 1e-12);
        }
    }

    #[test]
    fn latency_monotone_in_load_until_saturation() {
        let m = paper_model(1024, 32.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let load = 0.002 * f64::from(i) / 2.0; // up to 0.02 flits/cycle
            let lat = m.latency_at_flit_load(load).unwrap();
            assert!(lat.total > prev, "latency must increase with load");
            prev = lat.total;
        }
    }

    #[test]
    fn saturation_errors_past_the_knee() {
        let m = paper_model(1024, 32.0);
        // Far beyond any plausible capacity.
        let err = m.latency_at_flit_load(2.0).unwrap_err();
        assert!(err.is_saturation(), "expected saturation, got {err}");
    }

    #[test]
    fn rates_match_eq14() {
        let m = paper_model(1024, 32.0);
        let l0 = 0.001;
        // λ_{l,l+1} = λ0 (4^n − 4^l)/(4^n − 1) 2^l.
        for l in 1..5u32 {
            let expect = l0 * ((1024.0 - 4f64.powi(l as i32)) / 1023.0) * 2f64.powi(l as i32);
            assert!((m.lambda_up(l, l0) - expect).abs() < 1e-15, "level {l}");
            assert!((m.lambda_down(l + 1, l0) - expect).abs() < 1e-15);
        }
        assert_eq!(m.lambda_up(0, l0), l0);
        assert_eq!(m.lambda_down(1, l0), l0);
    }

    #[test]
    fn audit_shapes_and_down_chain_values() {
        let m = paper_model(256, 16.0);
        let a = m.audit_at_message_rate(0.001).unwrap();
        assert_eq!(a.x_down.len(), 5);
        assert_eq!(a.x_up.len(), 4);
        // Eq. 16: ejection service is exactly s.
        assert_eq!(a.x_down[1], 16.0);
        // Eq. 17 with deterministic service at the floor: W = M/D/1 wait.
        let w_expected = wormsim_queueing::mg1::waiting_time(0.001, 16.0, 0.0).unwrap();
        assert!((a.w_down[1] - w_expected).abs() < 1e-12);
        // Down chain grows monotonically (each level adds waiting).
        for l in 1..4 {
            assert!(a.x_down[l + 1] >= a.x_down[l]);
        }
    }

    #[test]
    fn manual_two_level_recurrence_check() {
        // N=16 (n=2), fully hand-computed chain at λ0 = 0.002, s = 16.
        let s = 16.0;
        let l0 = 0.002;
        let m = paper_model(16, s);
        let a = m.audit_at_message_rate(l0).unwrap();

        let scv = |x: f64| (x - s) * (x - s) / (x * x);
        let lam_d1 = l0;
        let x10 = s;
        let w10 = lam_d1 * x10 * x10 * (1.0 + scv(x10)) / (2.0 * (1.0 - lam_d1 * x10));
        assert!((a.w_down[1] - w10).abs() < 1e-12);

        // λ_{1,2} = λ0 · (16−4)/15 · 2.
        let lam_u1 = l0 * (12.0 / 15.0) * 2.0;
        // Eq. 18 for ⟨2,1⟩: x = x10 + (1 − ¼ λ21/λ10) W10 with λ21 = λ12.
        let pb_d2 = 1.0 - 0.25 * lam_u1 / lam_d1;
        let x21 = x10 + pb_d2.clamp(0.0, 1.0) * w10;
        assert!((a.x_down[2] - x21).abs() < 1e-12);
        let w21 = lam_u1 * x21 * x21 * (1.0 + scv(x21)) / (2.0 * (1.0 - lam_u1 * x21));
        assert!((a.w_down[2] - w21).abs() < 1e-12);

        // Eq. 20 top channel ⟨1,2⟩: x = x21 + (2/3)W21 (rates equal).
        let x12 = x21 + (2.0 / 3.0) * w21;
        assert!((a.x_up[1] - x12).abs() < 1e-12);
        // Eq. 21 with margin correction: two-server wait at combined 2λ.
        let lam2 = 2.0 * lam_u1;
        let w12 =
            lam2 * lam2 * x12.powi(3) / (2.0 * (4.0 - lam2 * lam2 * x12 * x12)) * (1.0 + scv(x12));
        assert!((a.w_up[1] - w12).abs() < 1e-12, "{} vs {w12}", a.w_up[1]);

        // Eq. 22 for ⟨0,1⟩ then Eq. 24.
        let p_up = 12.0 / 15.0;
        let p_down = 1.0 - p_up;
        let pb_up = 1.0 - (l0 / lam_u1) * p_up;
        let pb_down = 1.0 - p_down / 3.0;
        let x01 = p_up * (x12 + pb_up * w12) + p_down * (x10 + pb_down * w10);
        assert!((a.x_up[0] - x01).abs() < 1e-12);
        let w01 = l0 * x01 * x01 * (1.0 + scv(x01)) / (2.0 * (1.0 - l0 * x01));
        assert!((a.w_up[0] - w01).abs() < 1e-12);

        // Eq. 25.
        let lat = m.latency_at_message_rate(l0).unwrap();
        let expect = w01 + x01 + m.params().average_distance() - 1.0;
        assert!((lat.total - expect).abs() < 1e-12);
    }

    #[test]
    fn saturation_point_is_consistent() {
        let m = paper_model(1024, 16.0);
        let sat = m.saturation().unwrap();
        // At saturation x01 ≈ 1/λ0.
        let x = m.source_service_time(sat.message_rate).unwrap();
        assert!(
            (x - 1.0 / sat.message_rate).abs() / x < 1e-6,
            "x01 {x} vs 1/λ {}",
            1.0 / sat.message_rate
        );
        // Latency below saturation must still resolve.
        assert!(m.latency_at_message_rate(sat.message_rate * 0.9).is_ok());
        // Flit load consistent.
        assert!((sat.flit_load - sat.message_rate * 16.0).abs() < 1e-12);
        // The knee should land in Figure 3's neighbourhood (order 0.03–0.10
        // flits/cycle/PE for a 1024-node tree).
        assert!(
            sat.flit_load > 0.01 && sat.flit_load < 0.2,
            "knee at {}",
            sat.flit_load
        );
    }

    #[test]
    fn longer_worms_saturate_at_lower_message_rates() {
        let m16 = paper_model(1024, 16.0);
        let m64 = paper_model(1024, 64.0);
        let s16 = m16.saturation().unwrap();
        let s64 = m64.saturation().unwrap();
        assert!(s64.message_rate < s16.message_rate);
    }

    #[test]
    fn ablations_predict_more_waiting() {
        // Both novelties reduce predicted waiting, so removing either must
        // not decrease latency at a loaded operating point.
        let params = BftParams::paper(1024).unwrap();
        let load = 0.02;
        let paper = BftModel::with_options(params, 32.0, ModelOptions::paper())
            .latency_at_flit_load(load)
            .unwrap();
        let a1 = BftModel::with_options(params, 32.0, ModelOptions::single_server_up())
            .latency_at_flit_load(load)
            .unwrap();
        let a2 = BftModel::with_options(params, 32.0, ModelOptions::no_blocking_correction())
            .latency_at_flit_load(load)
            .unwrap();
        let prior = BftModel::with_options(params, 32.0, ModelOptions::prior_art())
            .latency_at_flit_load(load)
            .unwrap();
        assert!(
            a1.total > paper.total,
            "A1 {} vs paper {}",
            a1.total,
            paper.total
        );
        assert!(
            a2.total > paper.total,
            "A2 {} vs paper {}",
            a2.total,
            paper.total
        );
        assert!(prior.total >= a1.total.max(a2.total) * 0.999);
    }

    #[test]
    fn scv_modes_order_waiting() {
        let params = BftParams::paper(256).unwrap();
        let mk = |scv| {
            BftModel::with_options(
                params,
                32.0,
                ModelOptions {
                    scv,
                    ..ModelOptions::paper()
                },
            )
        };
        let det = mk(ScvMode::Deterministic)
            .latency_at_flit_load(0.02)
            .unwrap();
        let worm = mk(ScvMode::Wormhole).latency_at_flit_load(0.02).unwrap();
        let exp = mk(ScvMode::Exponential).latency_at_flit_load(0.02).unwrap();
        assert!(det.total <= worm.total);
        assert!(worm.total <= exp.total);
    }

    #[test]
    fn degenerate_single_level_tree() {
        let m = BftModel::new(BftParams::new(4, 2, 1).unwrap(), 8.0);
        let lat = m.latency_at_message_rate(0.0).unwrap();
        // D̄ = 2; L = 8 + 2 − 1.
        assert!((lat.total - 9.0).abs() < 1e-12);
        // Loaded case still resolves and saturates eventually.
        assert!(m.latency_at_message_rate(0.01).is_ok());
        assert!(m.saturation().is_ok());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let m = paper_model(64, 16.0);
        assert!(m.latency_at_message_rate(-0.001).is_err());
        assert!(m.latency_at_message_rate(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "worm length")]
    fn zero_worm_length_panics() {
        let _ = BftModel::new(BftParams::paper(64).unwrap(), 0.0);
    }
}
