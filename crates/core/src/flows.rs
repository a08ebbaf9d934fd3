//! Workload-driven model construction from per-channel flow vectors.
//!
//! [`model_from_flows`] is the one builder of the per-station §2 model.
//! It accepts a precomputed [`FlowVector`] — *any* destination pattern
//! pushed through the router's deterministic/adaptive path logic — and
//! assembles the model from it with **one channel class per arbitration
//! station**. No symmetry is assumed, so the same builder serves networks
//! whose channels genuinely differ by position (a mesh's corners and
//! center) and nonuniform patterns alike:
//!
//! * single-channel stations (down-links, dimension hops, ejections)
//!   become ordinary M/G/1 classes carrying that channel's exact flow;
//! * multi-channel stations (the fat-tree's `p`-wide up-link bundles)
//!   stay M/G/p stations — the paper's key modeling ingredient survives
//!   the generalization — with the per-channel rate `λ = flow/m`;
//! * forwarding probabilities `R(i|j)` are read off the flow transitions,
//!   so spatially concentrated patterns (hot-spot) produce the asymmetric
//!   continuation structure the closed-form model cannot see.
//!
//! Per Eq. 2, latency averages the injection wait and service over every
//! PE, which under nonuniform patterns genuinely differ by position.

use crate::bft::LatencyBreakdown;
use crate::error::ModelError;
use crate::framework::{ClassBody, ClassId, ClassSpec, Forward, NetworkSpec, Solution, WarmStart};
use crate::options::ModelOptions;
use crate::Result;
use wormsim_guard::SolveOutcome;
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::ids::ChannelId;
use wormsim_workload::FlowVector;

/// A per-station model: the class spec (one class per arbitration
/// station) plus the injection class of every PE to average over, equally
/// weighted under the uniform-sources assumption.
#[derive(Debug, Clone)]
pub struct StationModel {
    /// The per-station network specification.
    pub spec: NetworkSpec,
    /// Injection station class of every PE.
    pub injections: Vec<ClassId>,
}

impl StationModel {
    /// Average latency: Eq. 2's per-source average of `W_inj + x̄_inj`,
    /// plus `D̄ − 1`. `warm` is the sweep state of
    /// [`NetworkSpec::solve`].
    ///
    /// # Errors
    ///
    /// Saturation of any station, or spec inconsistencies.
    pub fn latency(
        &self,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
    ) -> Result<LatencyBreakdown> {
        let sol = self.spec.solve(options, warm, None)?;
        self.breakdown_from(&sol, options)
    }

    /// Saturation-aware [`Self::latency`]: total over every load,
    /// returning a typed [`SolveOutcome`] instead of erroring on
    /// saturation or iteration failure (see
    /// [`NetworkSpec::solve_outcome`]).
    ///
    /// # Errors
    ///
    /// Genuine usage errors only (malformed spec, invalid options).
    pub fn latency_outcome(
        &self,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
    ) -> Result<SolveOutcome<LatencyBreakdown>> {
        Ok(match self.spec.solve_outcome(options, warm, None)? {
            SolveOutcome::Converged(sol) => {
                SolveOutcome::Converged(self.breakdown_from(&sol, options)?)
            }
            SolveOutcome::Saturated { knee_estimate } => SolveOutcome::Saturated { knee_estimate },
            SolveOutcome::NoConvergence {
                iterations,
                residual,
            } => SolveOutcome::NoConvergence {
                iterations,
                residual,
            },
        })
    }

    fn breakdown_from(&self, sol: &Solution, options: &ModelOptions) -> Result<LatencyBreakdown> {
        let mut w_sum = 0.0;
        let mut x_sum = 0.0;
        for inj in &self.injections {
            // Lane corrections per injection station (identities at L = 1):
            // the wait is already the M/G/L lane-slot wait, and the
            // injection hold is the multiplex-stretched residence.
            let x = sol.service_times[inj.0];
            w_sum += sol.waiting_times[inj.0];
            x_sum += self.spec.lane_residence_for(inj.0, x, options)?;
        }
        let n = self.injections.len() as f64;
        let (w, x) = (w_sum / n, x_sum / n);
        Ok(LatencyBreakdown {
            w_injection: w,
            x_injection: x,
            avg_distance: self.spec.avg_distance,
            total: w + x + self.spec.avg_distance - 1.0,
        })
    }

    /// Per-PE injection summary `(W_inj, x̄_inj)` — exposes the spatial
    /// asymmetry of non-symmetric networks (mesh corners vs. center).
    ///
    /// # Errors
    ///
    /// Same as [`Self::latency`].
    pub fn per_source_injection(&self, options: &ModelOptions) -> Result<Vec<(f64, f64)>> {
        let sol = self.spec.solve(options, None, None)?;
        Ok(self
            .injections
            .iter()
            .map(|inj| (sol.waiting_times[inj.0], sol.service_times[inj.0]))
            .collect())
    }
}

/// Builds a per-station §2 model from a flow vector at per-PE message
/// rate `lambda0`.
///
/// The returned [`StationModel`] solves Eq. 11 over the station classes
/// and averages Eq. 2 over the per-PE injection stations.
///
/// `alive_servers` prices a *degraded* fabric: `alive_servers[st]` gives
/// the number of surviving member channels of each station (what
/// `wormsim_faults::FaultPlan::alive_servers` computes), and the station
/// classes become M/G/`alive` instead of M/G/`m` — a fat-tree up-link
/// pair with one dead member is priced as a single-server station
/// carrying the full surviving flow. `None` (or the pristine counts)
/// prices the pristine fabric, bit-for-bit.
///
/// # Errors
///
/// [`ModelError::Spec`] when the flow vector does not match `net`,
/// `lambda0` is invalid, the server vector has the wrong length, or a
/// station carries flow with no surviving servers (a disconnected fabric
/// — the flow builder reports those as typed workload errors first).
pub fn model_from_flows(
    net: &ChannelNetwork,
    flows: &FlowVector,
    worm_flits: f64,
    lambda0: f64,
    alive_servers: Option<&[u32]>,
) -> Result<StationModel> {
    if !(lambda0.is_finite() && lambda0 >= 0.0) {
        return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
    }
    if flows.num_channels() != net.num_channels() || flows.num_pes() != net.num_processors() {
        return Err(ModelError::Spec(format!(
            "flow vector shape ({} PEs, {} channels) does not match the network \
             ({} PEs, {} channels)",
            flows.num_pes(),
            flows.num_channels(),
            net.num_processors(),
            net.num_channels()
        )));
    }

    let n_st = net.num_stations();
    if let Some(servers) = alive_servers {
        if servers.len() != n_st {
            return Err(ModelError::Spec(format!(
                "alive-server vector has {} entries for {n_st} stations",
                servers.len()
            )));
        }
    }
    // Aggregate channel-level flows and continuations by station. For each
    // target station, track both the total continuation weight and the
    // *sending flow* — the flow of the member channels that can actually
    // reach the target. Their ratio is the blocking probability of Eq. 10
    // conditioned on the worm's realized channel: in a fat-tree up-link
    // pair each parent owns its own sibling down-links, so the worm that
    // landed at that parent enters them with the full per-channel
    // probability, not the bundle-marginal one.
    let mut station_flow = vec![0.0f64; n_st];
    // (target station, continuation weight, sending flow)
    let mut station_out: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n_st];
    let mut per_channel: Vec<(usize, f64)> = Vec::new();
    for (st_idx, station) in net.stations().iter().enumerate() {
        for &ch in &station.channels {
            let ch_flow = flows.unit_flow(ch);
            station_flow[st_idx] += ch_flow;
            // Collapse this channel's transitions by target station first,
            // so its flow counts once per reachable station.
            per_channel.clear();
            for &(to_ch, w) in flows.transitions(ch) {
                let to_st = net.channel(ChannelId(to_ch)).station.index();
                match per_channel.iter_mut().find(|(s, _)| *s == to_st) {
                    Some(entry) => entry.1 += w,
                    None => per_channel.push((to_st, w)),
                }
            }
            for &(to_st, w) in &per_channel {
                match station_out[st_idx].iter_mut().find(|(s, _, _)| *s == to_st) {
                    Some(entry) => {
                        entry.1 += w;
                        entry.2 += ch_flow;
                    }
                    None => station_out[st_idx].push((to_st, w, ch_flow)),
                }
            }
        }
    }

    let mut classes = Vec::with_capacity(n_st);
    for (st_idx, station) in net.stations().iter().enumerate() {
        let servers = match alive_servers {
            None => station.servers(),
            Some(alive) => {
                if alive[st_idx] == 0 && station_flow[st_idx] > 0.0 {
                    return Err(ModelError::Spec(format!(
                        "station {st_idx} carries flow {} but has no surviving servers",
                        station_flow[st_idx]
                    )));
                }
                // Flow-free dead stations keep one phantom server so the
                // M/G/m algebra stays defined; their λ is zero.
                alive[st_idx].max(1)
            }
        };
        let lambda = station_flow[st_idx] * lambda0 / f64::from(servers);
        let out_total: f64 = station_out[st_idx].iter().map(|&(_, w, _)| w).sum();
        let body = if out_total > 0.0 {
            let mut forwards: Vec<Forward> = station_out[st_idx]
                .iter()
                .map(|&(to, w, sending)| Forward {
                    to: ClassId(to),
                    multiplicity: 1,
                    prob_each: w / out_total,
                    blocking_prob: (w / sending).min(1.0),
                })
                .collect();
            forwards.sort_unstable_by_key(|f| f.to.0);
            ClassBody::Interior { forwards }
        } else {
            // Ejection stations and channels the pattern never uses.
            ClassBody::Terminal {
                service_time: worm_flits,
            }
        };
        let lead = match station.channels.first() {
            Some(lead) => lead,
            None => {
                return Err(ModelError::Spec(format!(
                    "station {st_idx} has no member channels"
                )))
            }
        };
        classes.push(ClassSpec {
            name: format!("{} st{st_idx}", net.channel(*lead).class),
            lambda,
            servers,
            body,
        });
    }

    let injections: Vec<ClassId> = (0..net.num_processors())
        .map(|pe| ClassId(net.channel(net.processors()[pe].inject).station.index()))
        .collect();

    let spec = NetworkSpec {
        classes,
        worm_flits,
        injection: injections[0],
        avg_distance: flows.avg_distance(),
    };
    Ok(StationModel { spec, injections })
}

/// A load sweep over one flow vector's per-station model, built once.
///
/// [`model_from_flows`] assembles the whole class spec for a single
/// `lambda0`; sweeping a figure re-did that work — and a cold fixed-point
/// solve — at every point. This helper exploits that the spec's *shape*
/// (classes, forwards, probabilities) is load-independent: only the class
/// rates scale linearly with `lambda0`. It builds the model once at unit
/// rate, rescales the rates in place per point, and threads a
/// [`WarmStart`] so cyclic solves seed from the previous load's converged
/// vector.
#[derive(Debug, Clone)]
pub struct FlowModelSweep {
    model: StationModel,
    /// Per-class arrival rate at `lambda0 = 1`.
    unit_lambdas: Vec<f64>,
    warm: WarmStart,
}

impl FlowModelSweep {
    /// Builds the per-station model of `flows` over `net` once, ready to
    /// be evaluated at any load.
    ///
    /// # Errors
    ///
    /// As [`model_from_flows`].
    pub fn new(net: &ChannelNetwork, flows: &FlowVector, worm_flits: f64) -> Result<Self> {
        Self::new_with_servers(net, flows, worm_flits, None)
    }

    /// As [`Self::new`] over a degraded fabric: `alive_servers` as in
    /// [`model_from_flows`].
    ///
    /// # Errors
    ///
    /// As [`model_from_flows`].
    pub fn new_with_servers(
        net: &ChannelNetwork,
        flows: &FlowVector,
        worm_flits: f64,
        alive_servers: Option<&[u32]>,
    ) -> Result<Self> {
        let model = model_from_flows(net, flows, worm_flits, 1.0, alive_servers)?;
        let unit_lambdas = model.spec.classes.iter().map(|c| c.lambda).collect();
        Ok(Self {
            model,
            unit_lambdas,
            warm: WarmStart::new(),
        })
    }

    /// Latency at per-PE message rate `lambda0` (Eq. 2 averaged over the
    /// per-PE injection stations), warm-starting from the previous call.
    ///
    /// # Errors
    ///
    /// [`ModelError::Spec`] on an invalid rate; solver errors as in
    /// [`StationModel::latency`].
    pub fn latency_at(&mut self, lambda0: f64, options: &ModelOptions) -> Result<LatencyBreakdown> {
        if !(lambda0.is_finite() && lambda0 >= 0.0) {
            return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
        }
        for (class, unit) in self.model.spec.classes.iter_mut().zip(&self.unit_lambdas) {
            class.lambda = unit * lambda0;
        }
        self.model.latency(options, Some(&mut self.warm))
    }

    /// Saturation-aware [`Self::latency_at`], total over every load:
    /// sub-knee loads return `Converged(latency)`, past-knee loads return
    /// `Saturated` *as data* (after the full escalation ladder has tried
    /// to rescue the solve) — the sweep records the point and continues
    /// instead of dying.
    ///
    /// # Errors
    ///
    /// Genuine usage errors only: an invalid `lambda0`, malformed
    /// options.
    pub fn outcome_at(
        &mut self,
        lambda0: f64,
        options: &ModelOptions,
    ) -> Result<SolveOutcome<LatencyBreakdown>> {
        if !(lambda0.is_finite() && lambda0 >= 0.0) {
            return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
        }
        for (class, unit) in self.model.spec.classes.iter_mut().zip(&self.unit_lambdas) {
            class.lambda = unit * lambda0;
        }
        self.model.latency_outcome(options, Some(&mut self.warm))
    }

    /// Brackets this workload's saturation knee in per-PE message rate
    /// `λ₀` (worms/cycle/PE): the spec is restored to unit rates, so
    /// [`crate::framework::NetworkSpec::find_knee`]'s rate multiplier
    /// *is* `λ₀`. The returned [`wormsim_guard::Knee::knee`] is the
    /// largest rate proven feasible.
    ///
    /// # Errors
    ///
    /// As [`crate::framework::NetworkSpec::find_knee`].
    pub fn find_knee(
        &mut self,
        options: &ModelOptions,
        cfg: &wormsim_guard::KneeConfig,
    ) -> Result<wormsim_guard::Knee> {
        for (class, unit) in self.model.spec.classes.iter_mut().zip(&self.unit_lambdas) {
            class.lambda = *unit;
        }
        self.model.spec.find_knee(options, cfg)
    }

    /// The model as last rescaled (mainly for inspection in tests).
    #[must_use]
    pub fn model(&self) -> &StationModel {
        &self.model
    }

    /// Accumulated fixed-point iteration statistics across the sweep.
    #[must_use]
    pub fn warm_start(&self) -> &WarmStart {
        &self.warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bft::BftModel;
    use crate::hypercube::hypercube_spec;
    use wormsim_topology::bft::{BftParams, ButterflyFatTree};
    use wormsim_topology::graph::ChannelClass;
    use wormsim_topology::hypercube::Hypercube;
    use wormsim_topology::mesh::Mesh;
    use wormsim_workload::{DestinationPattern, FlowRouting};

    #[test]
    fn uniform_flows_track_the_closed_form_bft_model() {
        // The per-station model is *sharper* than §3's closed form under
        // uniform traffic: flow transitions condition the up/down turn on
        // the worm's realized path (a worm arriving at level 2 has already
        // left its own block: 48/60 at N=64), where Eq. 12 uses the
        // unconditional per-level ratio (48/63). Agreement is therefore
        // very close but not bit-exact; bit-exact Figure 2/3 reproduction
        // is the job of `bft_spec_with_rates` + `BftLevelRates`.
        for n in [16usize, 64, 256] {
            let params = BftParams::paper(n).unwrap();
            let tree = ButterflyFatTree::new(params);
            let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
            for s in [16.0, 32.0] {
                for lambda0 in [0.0, 0.0005, 0.001] {
                    let closed = BftModel::new(params, s).latency_at_message_rate(lambda0);
                    let station = model_from_flows(tree.network(), &flows, s, lambda0, None)
                        .unwrap()
                        .latency(&ModelOptions::paper(), None);
                    match (closed, station) {
                        (Ok(a), Ok(b)) => {
                            assert!(
                                (a.total - b.total).abs() < 1e-2 * (1.0 + a.total),
                                "N={n} s={s} λ0={lambda0}: closed {} vs per-station {}",
                                a.total,
                                b.total
                            );
                            if lambda0 == 0.0 {
                                // At zero load both are exact.
                                assert!((a.total - b.total).abs() < 1e-9);
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!("disagreement at N={n} s={s} λ0={lambda0}: {a:?} {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_cube_flows_match_the_hypercube_class_model() {
        // For e-cube routing the per-station model and the hand-derived
        // per-dimension class model are the same mathematical object.
        for dim in [4u32, 6, 8] {
            let cube = Hypercube::new(dim).unwrap();
            let flows = FlowVector::build(&cube, &DestinationPattern::Uniform).unwrap();
            for lambda0 in [0.0, 0.002, 0.006] {
                let a = model_from_flows(cube.network(), &flows, 16.0, lambda0, None)
                    .unwrap()
                    .latency(&ModelOptions::paper(), None)
                    .unwrap();
                let b = hypercube_spec(dim, 16.0, lambda0)
                    .unwrap()
                    .latency(&ModelOptions::paper(), None)
                    .unwrap();
                assert!(
                    (a.total - b.total).abs() < 1e-9 * (1.0 + a.total),
                    "d={dim} λ0={lambda0}: flows {} vs class model {}",
                    a.total,
                    b.total
                );
            }
        }
    }

    #[test]
    fn cube_stations_solve_to_their_symmetry_derived_class() {
        // The class model assumes every channel of one dimension is
        // statistically identical; the per-station model solves each
        // channel on its own, so each must land on its class's x̄ and W.
        let dim = 4u32;
        let cube = Hypercube::new(dim).unwrap();
        let flows = FlowVector::build(&cube, &DestinationPattern::Uniform).unwrap();
        let opts = ModelOptions::paper();
        for lambda0 in [0.0, 0.002, 0.008] {
            let by_station = model_from_flows(cube.network(), &flows, 16.0, lambda0, None)
                .unwrap()
                .spec
                .solve(&opts, None, None)
                .unwrap();
            let by_class = hypercube_spec(dim, 16.0, lambda0)
                .unwrap()
                .solve(&opts, None, None)
                .unwrap();
            for (i, info) in cube.network().channels().iter().enumerate() {
                let class = match info.class {
                    ChannelClass::Ejection => 0,
                    ChannelClass::Dimension { dim: k } => 1 + k as usize,
                    ChannelClass::Injection => 1 + dim as usize,
                    other => panic!("channel {i}: unexpected class {other}"),
                };
                let st = info.station.index();
                for (what, got, want) in [
                    (
                        "x̄",
                        by_station.service_times[st],
                        by_class.service_times[class],
                    ),
                    (
                        "W",
                        by_station.waiting_times[st],
                        by_class.waiting_times[class],
                    ),
                ] {
                    assert!(
                        (got - want).abs() < 1e-9 * (1.0 + want),
                        "λ0={lambda0} channel {i} ({}): {what} {got} vs class {want}",
                        info.class
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_flow_model_exposes_positional_asymmetry() {
        // In a mesh, central channels carry more traffic than edge ones,
        // and central sources see more contention than corner sources.
        let mesh = Mesh::new(4, 2).unwrap();
        let flows = FlowVector::build(&mesh, &DestinationPattern::Uniform).unwrap();
        let m = model_from_flows(mesh.network(), &flows, 16.0, 0.004, None).unwrap();
        m.spec.validate().unwrap();
        let per_source = m.per_source_injection(&ModelOptions::paper()).unwrap();
        // Corner sources have the longest expected remaining paths under
        // uniform traffic, so their injected worms accumulate the most
        // downstream blocking: corner x̄_inj exceeds central x̄_inj.
        let (_, x_corner) = per_source[0]; // PE 0 = (0,0)
        let (_, x_center) = per_source[5]; // PE 5 = (1,1)
        assert!(
            x_corner > x_center,
            "corner source service {x_corner} should exceed central {x_center}"
        );
        // The asymmetry is real: min and max per-source service differ.
        let xs: Vec<f64> = per_source.iter().map(|&(_, x)| x).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 1e-3, "mesh injection must vary by position");
        // Average latency sits above the zero-load bound.
        let lat = m.latency(&ModelOptions::paper(), None).unwrap();
        assert!(lat.total > 16.0 + m.spec.avg_distance - 1.0);
    }

    #[test]
    fn hotspot_predicts_earlier_saturation_than_uniform() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let uniform = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        let hot = FlowVector::build(&tree, &DestinationPattern::hot_spot()).unwrap();
        let s = 16.0;
        // Hot ejector carries ≈ (N−1)·β + (1−β) ≈ 8.75 units: it saturates
        // when λ0·8.75·16 ≥ 1, i.e. λ0 ≈ 0.0071, far below the uniform knee.
        let lambda0 = 0.005;
        let u = model_from_flows(tree.network(), &uniform, s, lambda0, None)
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .unwrap();
        let h = model_from_flows(tree.network(), &hot, s, lambda0, None)
            .unwrap()
            .latency(&ModelOptions::paper(), None);
        match h {
            Ok(h) => assert!(h.total > u.total, "hot {} vs uniform {}", h.total, u.total),
            Err(e) => assert!(e.is_saturation(), "unexpected error {e}"),
        }
        // And well past the hot ejector's capacity it must saturate.
        let sat = model_from_flows(tree.network(), &hot, s, 0.008, None)
            .unwrap()
            .latency(&ModelOptions::paper(), None);
        assert!(sat.is_err());
    }

    #[test]
    fn zero_load_latency_is_exact_for_any_pattern() {
        let mesh = Mesh::new(4, 2).unwrap();
        for pattern in [
            DestinationPattern::Uniform,
            DestinationPattern::Tornado,
            DestinationPattern::Transpose,
            DestinationPattern::hot_spot(),
        ] {
            let flows = FlowVector::build(&mesh, &pattern).unwrap();
            let m = model_from_flows(mesh.network(), &flows, 16.0, 0.0, None).unwrap();
            let lat = m.latency(&ModelOptions::paper(), None).unwrap();
            let expect = 16.0 + flows.avg_distance() - 1.0;
            assert!(
                (lat.total - expect).abs() < 1e-12,
                "{pattern:?}: {} vs {expect}",
                lat.total
            );
        }
    }

    #[test]
    fn zero_load_flow_latency_is_exact_on_every_topology() {
        // With no load nothing waits, so every topology's flow-built model
        // returns s + D̄ − 1, the fat-tree's M/G/p up-link bundles included.
        fn zero_load_gap<R: FlowRouting>(routing: &R) -> f64 {
            let flows = FlowVector::build(routing, &DestinationPattern::Uniform).unwrap();
            let lat = model_from_flows(routing.network(), &flows, 16.0, 0.0, None)
                .unwrap()
                .latency(&ModelOptions::paper(), None)
                .unwrap();
            lat.total - (16.0 + flows.avg_distance() - 1.0)
        }
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let cube = Hypercube::new(4).unwrap();
        let mesh = Mesh::new(3, 2).unwrap();
        for (name, gap) in [
            ("bft N=64", zero_load_gap(&tree)),
            ("cube d=4", zero_load_gap(&cube)),
            ("mesh 3x3", zero_load_gap(&mesh)),
        ] {
            assert!(gap.abs() < 1e-12, "{name}: off by {gap}");
        }
    }

    #[test]
    fn flow_model_sweep_matches_per_point_builds() {
        // Building once + rescaling rates must be indistinguishable from
        // rebuilding the model at every load (the spec is a DAG here, so
        // warm starting cannot even perturb iteration paths).
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::hot_spot()).unwrap();
        let mut sweep = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
        for lambda0 in [0.0, 0.0005, 0.001, 0.002, 0.003] {
            let swept = sweep.latency_at(lambda0, &ModelOptions::paper());
            let rebuilt = model_from_flows(tree.network(), &flows, 16.0, lambda0, None)
                .unwrap()
                .latency(&ModelOptions::paper(), None);
            match (swept, rebuilt) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.total.to_bits(),
                    b.total.to_bits(),
                    "λ0={lambda0}: {} vs {}",
                    a.total,
                    b.total
                ),
                (Err(_), Err(_)) => {}
                other => panic!("λ0={lambda0}: {other:?}"),
            }
        }
        assert!(sweep.latency_at(f64::NAN, &ModelOptions::paper()).is_err());
        assert_eq!(sweep.warm_start().solves(), 5);
    }

    #[test]
    fn alive_servers_pristine_counts_reproduce_the_undegraded_model() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        let net = tree.network();
        let full: Vec<u32> = net
            .stations()
            .iter()
            .map(wormsim_topology::graph::Station::servers)
            .collect();
        for lambda0 in [0.0, 0.001, 0.002] {
            let base = model_from_flows(net, &flows, 16.0, lambda0, None)
                .unwrap()
                .latency(&ModelOptions::paper(), None)
                .unwrap();
            let degraded = model_from_flows(net, &flows, 16.0, lambda0, Some(&full))
                .unwrap()
                .latency(&ModelOptions::paper(), None)
                .unwrap();
            assert_eq!(base.total.to_bits(), degraded.total.to_bits());
        }
    }

    #[test]
    fn losing_a_server_raises_latency_and_losing_all_is_an_error() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        let net = tree.network();
        let mut alive: Vec<u32> = net
            .stations()
            .iter()
            .map(wormsim_topology::graph::Station::servers)
            .collect();
        // Degrade one multi-server up bundle by a single member.
        let bundle = net
            .stations()
            .iter()
            .position(|st| st.servers() > 1)
            .expect("BFT-64 has multi-server up bundles");
        alive[bundle] -= 1;
        let lambda0 = 0.002;
        let base = model_from_flows(net, &flows, 16.0, lambda0, None)
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .unwrap();
        let degraded = model_from_flows(net, &flows, 16.0, lambda0, Some(&alive))
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .unwrap();
        assert!(
            degraded.total > base.total,
            "degraded {} should exceed pristine {}",
            degraded.total,
            base.total
        );
        // A station that still carries flow but has no surviving servers is
        // a spec error, not a silent divide-by-zero.
        alive[bundle] = 0;
        let dead = model_from_flows(net, &flows, 16.0, lambda0, Some(&alive));
        assert!(dead.is_err());
        // And a wrong-length vector is rejected up front.
        let short = vec![1u32; 3];
        assert!(model_from_flows(net, &flows, 16.0, lambda0, Some(&short)).is_err());
    }

    #[test]
    fn sweep_outcomes_are_total_and_knee_brackets_the_transition() {
        // Uniform BFT-64: bracket the λ₀ knee, then sweep 0..2×knee
        // through the outcome API — every point must yield a typed
        // outcome (no panic, no Err), converged below the knee and
        // saturated above `first_infeasible`.
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        let mut sweep = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
        let opts = ModelOptions::paper();
        let cfg = wormsim_guard::KneeConfig {
            initial: 1e-4,
            max: 1.0,
            rel_tolerance: 1e-3,
            max_probes: 200,
        };
        let knee = sweep.find_knee(&opts, &cfg).unwrap();
        assert!(knee.knee > 0.0 && knee.first_infeasible < 1.0);
        for i in 0..=20 {
            let lambda0 = 2.0 * knee.knee * f64::from(i) / 20.0;
            let outcome = sweep.outcome_at(lambda0, &opts).unwrap();
            if lambda0 < knee.knee {
                assert!(
                    outcome.is_converged(),
                    "λ0={lambda0} below knee {} must converge, got {}",
                    knee.knee,
                    outcome.label()
                );
                let total = outcome.converged().unwrap().total;
                assert!(total.is_finite() && total > 0.0);
            }
            if lambda0 > knee.first_infeasible {
                assert!(
                    outcome.is_saturated(),
                    "λ0={lambda0} past {} must saturate, got {}",
                    knee.first_infeasible,
                    outcome.label()
                );
            }
        }
        // Converged outcomes agree bit-for-bit with the erroring API on
        // a fresh sweep (same warm-start history).
        let mut a = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
        let mut b = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
        for lambda0 in [0.0005, 0.001, 0.002] {
            let via_outcome = a.outcome_at(lambda0, &opts).unwrap();
            let via_err = b.latency_at(lambda0, &opts).unwrap();
            assert_eq!(
                via_outcome.converged().unwrap().total.to_bits(),
                via_err.total.to_bits()
            );
        }
        assert!(a.outcome_at(f64::NAN, &opts).is_err());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let tree16 = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let tree64 = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree16, &DestinationPattern::Uniform).unwrap();
        assert!(model_from_flows(tree64.network(), &flows, 16.0, 0.001, None).is_err());
        assert!(model_from_flows(tree16.network(), &flows, 16.0, f64::NAN, None).is_err());
    }
}
