//! The butterfly fat-tree model of paper §3.
//!
//! [`BftModel`] solves the §3 class spec, [`bft_spec`], with the general
//! model of paper §2 ([`crate::framework`]). For an `n`-level tree the
//! spec has one class per level and direction, at the rates of uniform
//! traffic (Eqs. 14/15): down class `⟨l, l−1⟩` is class `l − 1` for
//! `l ∈ 1..=n`, and up class `⟨l, l+1⟩` is class `n + l` for `l ∈ 0..n`.
//! The model builds the spec once, per unit source rate, and solves it at
//! each source rate `λ₀`.
//!
//! The class dependencies form a DAG, and the solver's reverse
//! topological order resolves them in one backward sweep:
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
//! Waiting times are the queueing crate's one station wait
//! (`wormsim_queueing::wormhole::station_wait`): M/G/1 (Eq. 6) for single
//! links and M/G/p (Eq. 8 at `p = 2`, Hokstad) for up-link bundles, with
//! the **combined** bundle rate `p·λ` per the manuscript's margin
//! correction to Eqs. 21/23. Blocking corrections are Eq. 10's per-channel
//! form (`wormsim_queueing::blocking::blocking_probability`). Average
//! latency is Eq. 25 ([`LatencyBreakdown::new`]) and saturation throughput
//! Eq. 26.
//!
//! All rates are per processor (`λ₀`, messages/cycle) or per channel; the
//! *flit load* of the paper's Figure 3 x-axis is `λ₀·(s/f)` flits/cycle/PE.

use crate::error::ModelError;
use crate::framework::{bft_spec, NetworkSpec};
use crate::options::ModelOptions;
use crate::throughput::{self, SaturationPoint};
use crate::Result;
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

impl LatencyBreakdown {
    /// Paper Eq. 25: the average latency `L = W₀,₁ + x̄₀,₁ + D̄ − 1` of a
    /// worm that waits `w_injection` for its injection channel, holds it
    /// for `x_injection` and crosses `avg_distance` channels.
    #[must_use]
    pub fn new(w_injection: f64, x_injection: f64, avg_distance: f64) -> Self {
        Self {
            w_injection,
            x_injection,
            avg_distance,
            total: w_injection + x_injection + avg_distance - 1.0,
        }
    }
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

/// The butterfly fat-tree model of paper §3: [`bft_spec`] built once,
/// solved at each source rate.
#[derive(Debug, Clone)]
pub struct BftModel {
    params: BftParams,
    options: ModelOptions,
    /// `bft_spec(params, s)`, solved at each `λ₀`.
    spec: NetworkSpec,
    /// The spec's class order (down chain, then up chain), resolved once.
    order: Option<Vec<usize>>,
}

impl BftModel {
    /// Model for `params` with worms of `worm_flits` flits (`s/f` in the
    /// paper), using the paper's options.
    #[must_use]
    pub fn new(params: BftParams, worm_flits: f64) -> Self {
        Self::with_options(params, worm_flits, ModelOptions::paper())
    }

    /// Model with explicit (possibly ablated) options.
    ///
    /// The worm length is checked where the model is evaluated: a zero,
    /// negative or non-finite `worm_flits` makes every entry point return
    /// [`ModelError::Spec`].
    #[must_use]
    pub fn with_options(params: BftParams, worm_flits: f64, options: ModelOptions) -> Self {
        let spec = bft_spec(&params, worm_flits);
        Self {
            params,
            options,
            order: spec.reverse_topological_order(),
            spec,
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
        self.spec.worm_flits
    }

    /// The model options in effect.
    #[must_use]
    pub fn options(&self) -> &ModelOptions {
        &self.options
    }

    /// Refuses, after the checks every entry point makes (worm length, then
    /// lane count), a single-lane entry point at `lanes > 1`: `L = 1`
    /// numbers from a multi-lane model would contradict
    /// [`Self::latency_at_message_rate`], which honours the lanes.
    fn single_lane_only(&self, what: &str) -> Result<()> {
        // Of a spec built from valid params, validation rejects only the
        // worm length.
        self.spec.validate()?;
        self.options.check_lanes()?;
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
    /// [`ModelError::Spec`] for an invalid rate or worm length, or when the
    /// options carry `lanes > 1` (the per-level audit is single-lane).
    pub fn audit_at_message_rate(&self, lambda0: f64) -> Result<ChannelAudit> {
        self.single_lane_only("audit_at_message_rate")?;
        let sol = self
            .spec
            .solve_at(lambda0, self.order.as_deref(), &self.options, None, None)?;
        // `bft_spec`'s layout: down class ⟨l, l−1⟩ is class l − 1 and up
        // class ⟨l, l+1⟩ is class n + l; `down[0]` stays 0.
        let n = self.params.levels() as usize;
        let rates: Vec<f64> = (0..2 * n).map(|j| self.spec.rate(j, lambda0)).collect();
        let down = |v: &[f64]| [&[0.0], &v[..n]].concat();
        Ok(ChannelAudit {
            lambda_down: down(&rates),
            x_down: down(&sol.service_times),
            w_down: down(&sol.waiting_times),
            lambda_up: rates[n..].to_vec(),
            x_up: sol.service_times[n..].to_vec(),
            w_up: sol.waiting_times[n..].to_vec(),
        })
    }

    /// Average latency at source message rate `lambda0` (Eq. 25), at any
    /// lane count.
    ///
    /// # Errors
    ///
    /// Saturation errors from the solve; [`ModelError::Spec`] for an
    /// invalid worm length, lane count or rate, checked in that order.
    pub fn latency_at_message_rate(&self, lambda0: f64) -> Result<LatencyBreakdown> {
        let sol = self
            .spec
            .solve_at(lambda0, self.order.as_deref(), &self.options, None, None)?;
        self.spec
            .breakdown(&sol, &[self.spec.injection], &self.options, lambda0)
    }

    /// Average latency at a *flit* load (flits/cycle/PE, the paper's
    /// Figure 3 x-axis): message rate `λ₀ = load/(s/f)`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::latency_at_message_rate`].
    pub fn latency_at_flit_load(&self, flit_load: f64) -> Result<LatencyBreakdown> {
        self.latency_at_message_rate(flit_load / self.worm_flits())
    }

    /// Source-channel service time `x̄₀,₁(λ₀)`, the quantity equated with
    /// `1/λ₀` at saturation (Eq. 26). Only the service times are solved,
    /// so this stays evaluable *at* the knee, where the injection queue is
    /// exactly critical.
    ///
    /// # Errors
    ///
    /// Same as [`Self::audit_at_message_rate`] (single-lane only).
    pub fn source_service_time(&self, lambda0: f64) -> Result<f64> {
        self.single_lane_only("source_service_time")?;
        self.spec
            .injection_service_at(lambda0, self.order.as_deref(), &self.options)
    }

    /// Maximum throughput: the saturation point where `x̄₀,₁ = 1/λ₀`
    /// (paper §3.5).
    ///
    /// # Errors
    ///
    /// As [`throughput::saturation_point`];
    /// [`ModelError::Spec`] for an invalid worm length or when the options
    /// carry `lanes > 1` — Eq. 26 is single-lane, and the multi-lane knee
    /// genuinely sits elsewhere (the simulator shows it moving outward with
    /// `L`; see `repro lanes`).
    pub fn saturation(&self) -> Result<SaturationPoint> {
        self.single_lane_only("saturation")?;
        throughput::saturation_point(self.worm_flits(), |lambda0| {
            self.source_service_time(lambda0)
        })
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
        let a = m.audit_at_message_rate(l0).unwrap();
        // λ_{l,l+1} = λ0 (4^n − 4^l)/(4^n − 1) 2^l.
        for l in 1..5 {
            let expect = l0 * ((1024.0 - 4f64.powi(l as i32)) / 1023.0) * 2f64.powi(l as i32);
            assert!((a.lambda_up[l] - expect).abs() < 1e-15, "level {l}");
            assert!((a.lambda_down[l + 1] - expect).abs() < 1e-15);
        }
        assert_eq!(a.lambda_up[0], l0);
        assert_eq!(a.lambda_down[1], l0);
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
    fn invalid_worm_lengths_are_typed_errors() {
        // Construction takes any length; every entry point refuses one no
        // channel can serve, at one lane and at two.
        let params = BftParams::paper(64).unwrap();
        for s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for lanes in [1, 2] {
                let m = BftModel::with_options(params, s, ModelOptions::paper().with_lanes(lanes));
                let results = [
                    ("audit", m.audit_at_message_rate(0.001).map(drop)),
                    ("source", m.source_service_time(0.001).map(drop)),
                    ("saturation", m.saturation().map(drop)),
                    ("latency", m.latency_at_message_rate(0.001).map(drop)),
                ];
                for (entry, r) in results {
                    let typed =
                        matches!(&r, Err(ModelError::Spec(msg)) if msg.contains("worm length"));
                    assert!(typed, "s = {s}, L = {lanes}, {entry}: {r:?}");
                }
            }
        }
    }
}
