//! Workload-driven model construction from per-channel flow vectors.
//!
//! [`FlowModelSweep`] is the per-station §2 model. It is built from a
//! precomputed [`FlowVector`] — *any* destination pattern pushed through
//! the router's deterministic/adaptive path logic — with **one channel
//! class per arbitration station**, once, per unit source rate, and is
//! then solved at any `λ₀`. No symmetry is assumed, so the same builder
//! serves networks whose channels genuinely differ by position (a mesh's
//! corners and center) and nonuniform patterns alike:
//!
//! * single-channel stations (down-links, dimension hops, ejections)
//!   become ordinary M/G/1 classes carrying that channel's exact flow;
//! * multi-channel stations (the fat-tree's `p`-wide up-link bundles)
//!   stay M/G/p stations — the paper's key modeling ingredient survives
//!   the generalization — with the per-channel rate `λ = flow/m`;
//! * forwarding probabilities `R(i|j)` are read off the flow transitions,
//!   so spatially concentrated patterns (hot-spot) produce the asymmetric
//!   continuation structure the per-level §3 model cannot see.
//!
//! Per Eq. 2, latency averages the injection wait and service over every
//! PE, which under nonuniform patterns genuinely differ by position.

use crate::bft::LatencyBreakdown;
use crate::error::ModelError;
use crate::framework::{ClassId, ClassSpec, Forward, NetworkSpec, WarmStart};
use crate::options::ModelOptions;
use crate::Result;
use wormsim_guard::SolveOutcome;
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::ids::ChannelId;
use wormsim_workload::FlowVector;

/// Builds the per-station class spec of `flows` over `net` per unit
/// source rate, with the injection class of every PE as its injection
/// classes (Eq. 2 averages over them, equally weighted under the
/// uniform-sources assumption).
///
/// `alive_servers` as in [`FlowModelSweep::new_with_servers`].
fn station_spec(
    net: &ChannelNetwork,
    flows: &FlowVector,
    worm_flits: f64,
    alive_servers: Option<&[u32]>,
) -> Result<NetworkSpec> {
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
        let lambda = station_flow[st_idx] / f64::from(servers);
        let out_total: f64 = station_out[st_idx].iter().map(|&(_, w, _)| w).sum();
        // Ejection stations and channels the pattern never uses keep no
        // forwards.
        let mut forwards = Vec::new();
        if out_total > 0.0 {
            forwards.extend(station_out[st_idx].iter().map(|&(to, w, sending)| Forward {
                to: ClassId(to),
                multiplicity: 1,
                prob_each: w / out_total,
                blocking_prob: (w / sending).min(1.0),
            }));
            forwards.sort_unstable_by_key(|f| f.to.0);
        }
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
            forwards,
        });
    }

    let injections = (0..net.num_processors())
        .map(|pe| ClassId(net.channel(net.processors()[pe].inject).station.index()))
        .collect();
    NetworkSpec::new(classes, worm_flits, injections, flows.avg_distance())
}

/// The per-station §2 model of one flow vector, built once per unit source
/// rate and solved at any `λ₀`.
///
/// Only the class rates scale with `λ₀`; the spec's *shape* (classes,
/// forwards, probabilities) and its class order do not, so the checked
/// spec is built once. A [`WarmStart`] threads each load's converged
/// vector into the next, so cyclic solves of a sweep seed from the
/// previous load.
#[derive(Debug, Clone)]
pub struct FlowModelSweep {
    /// The per-station spec, per unit source rate, with the injection
    /// station class of every PE.
    spec: NetworkSpec,
    warm: WarmStart,
}

impl FlowModelSweep {
    /// Builds the per-station model of `flows` over `net` once, ready to
    /// be evaluated at any load.
    ///
    /// # Errors
    ///
    /// As [`Self::new_with_servers`].
    pub fn new(net: &ChannelNetwork, flows: &FlowVector, worm_flits: f64) -> Result<Self> {
        Self::new_with_servers(net, flows, worm_flits, None)
    }

    /// As [`Self::new`] over a *degraded* fabric: `alive_servers[st]` gives
    /// the number of surviving member channels of each station (what
    /// `wormsim_faults::FaultPlan::alive_servers` computes), and the
    /// station classes become M/G/`alive` instead of M/G/`m` — a fat-tree
    /// up-link pair with one dead member is priced as a single-server
    /// station carrying the full surviving flow. `None` (or the pristine
    /// counts) prices the pristine fabric, bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`ModelError::Spec`] when the flow vector does not match `net`, the
    /// server vector has the wrong length, a station carries flow with
    /// no surviving servers (a disconnected fabric — the flow builder
    /// reports those as typed workload errors first), or the spec fails
    /// [`NetworkSpec::new`]'s checks (an invalid worm length).
    pub fn new_with_servers(
        net: &ChannelNetwork,
        flows: &FlowVector,
        worm_flits: f64,
        alive_servers: Option<&[u32]>,
    ) -> Result<Self> {
        Ok(Self {
            spec: station_spec(net, flows, worm_flits, alive_servers)?,
            warm: WarmStart::new(),
        })
    }

    /// Latency at per-PE message rate `lambda0` (Eq. 2 averaged over the
    /// per-PE injection stations), warm-starting from the previous call.
    ///
    /// # Errors
    ///
    /// [`ModelError::Spec`] on an invalid rate or options; saturation of
    /// any station as in [`NetworkSpec::solve`].
    pub fn latency_at(&mut self, lambda0: f64, options: &ModelOptions) -> Result<LatencyBreakdown> {
        self.spec.latency(lambda0, options, Some(&mut self.warm))
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
        self.spec
            .solve_outcome(lambda0, options, Some(&mut self.warm), None)?
            .try_map(|sol| self.spec.breakdown(&sol, options, lambda0))
    }

    /// Per-PE injection summary `(W_inj, x̄_inj)` at per-PE message rate
    /// `lambda0`, from a cold solve — exposes the spatial asymmetry of
    /// non-symmetric networks (mesh corners vs. center).
    ///
    /// # Errors
    ///
    /// As [`Self::latency_at`].
    pub fn per_source_injection(
        &self,
        lambda0: f64,
        options: &ModelOptions,
    ) -> Result<Vec<(f64, f64)>> {
        let sol = self.spec.solve(lambda0, options, None, None)?;
        Ok(self
            .spec
            .injections()
            .iter()
            .map(|inj| (sol.waiting_times[inj.0], sol.service_times[inj.0]))
            .collect())
    }

    /// Brackets this workload's saturation knee in per-PE message rate
    /// `λ₀` (worms/cycle/PE) with
    /// [`crate::framework::NetworkSpec::find_knee`]. The returned
    /// [`wormsim_guard::Knee::knee`] is the largest rate proven feasible.
    ///
    /// # Errors
    ///
    /// As [`crate::framework::NetworkSpec::find_knee`].
    pub fn find_knee(
        &self,
        options: &ModelOptions,
        cfg: &wormsim_guard::KneeConfig,
    ) -> Result<wormsim_guard::Knee> {
        self.spec.find_knee(options, cfg)
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
        // The per-station model is *sharper* than §3's per-level model under
        // uniform traffic: flow transitions condition the up/down turn on
        // the worm's realized path (a worm arriving at level 2 has already
        // left its own block: 48/60 at N=64), where Eq. 12 uses the
        // unconditional per-level ratio (48/63). Agreement is therefore
        // very close but not bit-exact; bit-exact Figure 2/3 reproduction
        // is the job of `BftModel`, which solves `framework::bft_spec`.
        for n in [16usize, 64, 256] {
            let params = BftParams::paper(n).unwrap();
            let tree = ButterflyFatTree::new(params);
            let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
            for s in [16.0, 32.0] {
                let closed_model = BftModel::new(params, s);
                let mut station_model = FlowModelSweep::new(tree.network(), &flows, s).unwrap();
                for lambda0 in [0.0, 0.0005, 0.001] {
                    let closed = closed_model.latency_at_message_rate(lambda0);
                    let station = station_model.latency_at(lambda0, &ModelOptions::paper());
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
            let mut by_station = FlowModelSweep::new(cube.network(), &flows, 16.0).unwrap();
            let by_class = hypercube_spec(dim, 16.0).unwrap();
            for lambda0 in [0.0, 0.002, 0.006] {
                let a = by_station
                    .latency_at(lambda0, &ModelOptions::paper())
                    .unwrap();
                let b = by_class
                    .latency(lambda0, &ModelOptions::paper(), None)
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
        let station_model = station_spec(cube.network(), &flows, 16.0, None).unwrap();
        let class_model = hypercube_spec(dim, 16.0).unwrap();
        for lambda0 in [0.0, 0.002, 0.008] {
            let by_station = station_model.solve(lambda0, &opts, None, None).unwrap();
            let by_class = class_model.solve(lambda0, &opts, None, None).unwrap();
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
        let mut m = FlowModelSweep::new(mesh.network(), &flows, 16.0).unwrap();
        let per_source = m
            .per_source_injection(0.004, &ModelOptions::paper())
            .unwrap();
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
        let lat = m.latency_at(0.004, &ModelOptions::paper()).unwrap();
        assert!(lat.total > 16.0 + m.spec.avg_distance() - 1.0);
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
        let opts = ModelOptions::paper();
        let mut u_model = FlowModelSweep::new(tree.network(), &uniform, s).unwrap();
        let mut h_model = FlowModelSweep::new(tree.network(), &hot, s).unwrap();
        let u = u_model.latency_at(lambda0, &opts).unwrap();
        let h = h_model.latency_at(lambda0, &opts);
        match h {
            Ok(h) => assert!(h.total > u.total, "hot {} vs uniform {}", h.total, u.total),
            Err(e) => assert!(e.is_saturation(), "unexpected error {e}"),
        }
        // And well past the hot ejector's capacity it must saturate.
        assert!(h_model.latency_at(0.008, &opts).is_err());
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
            let lat = FlowModelSweep::new(mesh.network(), &flows, 16.0)
                .unwrap()
                .latency_at(0.0, &ModelOptions::paper())
                .unwrap();
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
            let lat = FlowModelSweep::new(routing.network(), &flows, 16.0)
                .unwrap()
                .latency_at(0.0, &ModelOptions::paper())
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
    fn alive_servers_pristine_counts_reproduce_the_undegraded_model() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        let net = tree.network();
        let full: Vec<u32> = net
            .stations()
            .iter()
            .map(wormsim_topology::graph::Station::servers)
            .collect();
        let mut base = FlowModelSweep::new(net, &flows, 16.0).unwrap();
        let mut degraded =
            FlowModelSweep::new_with_servers(net, &flows, 16.0, Some(&full)).unwrap();
        for lambda0 in [0.0, 0.001, 0.002] {
            let opts = ModelOptions::paper();
            let base = base.latency_at(lambda0, &opts).unwrap();
            let degraded = degraded.latency_at(lambda0, &opts).unwrap();
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
        let (lambda0, opts) = (0.002, ModelOptions::paper());
        let base = FlowModelSweep::new(net, &flows, 16.0)
            .unwrap()
            .latency_at(lambda0, &opts)
            .unwrap();
        let degraded = FlowModelSweep::new_with_servers(net, &flows, 16.0, Some(&alive))
            .unwrap()
            .latency_at(lambda0, &opts)
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
        let dead = FlowModelSweep::new_with_servers(net, &flows, 16.0, Some(&alive));
        assert!(dead.is_err());
        // And a wrong-length vector is rejected up front.
        let short = vec![1u32; 3];
        assert!(FlowModelSweep::new_with_servers(net, &flows, 16.0, Some(&short)).is_err());
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
        // A non-finite or negative λ₀ is a usage error on every entry
        // point, not a saturation, and solves nothing.
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let results = [
                a.outcome_at(bad, &opts).map(drop),
                b.latency_at(bad, &opts).map(drop),
                b.per_source_injection(bad, &opts).map(drop),
            ];
            for r in results {
                let typed =
                    matches!(&r, Err(ModelError::Spec(m)) if m.starts_with("invalid message rate"));
                assert!(typed, "λ₀ = {bad}: {r:?}");
            }
        }
        assert_eq!(b.warm_start().solves(), 3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let tree16 = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let tree64 = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree16, &DestinationPattern::Uniform).unwrap();
        assert!(FlowModelSweep::new(tree64.network(), &flows, 16.0).is_err());
    }
}
