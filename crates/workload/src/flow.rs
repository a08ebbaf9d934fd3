//! Routing-induced per-channel flow vectors.
//!
//! The analytical model needs one number per channel: the worm arrival
//! rate `λ_c`. Under the paper's uniform-traffic assumption these rates
//! have closed forms (Eq. 14); under an arbitrary
//! [`DestinationPattern`] they do not,
//! but they are still *exactly computable*: push the source→destination
//! flow matrix through the router's path logic and read the rates off
//! the channels.
//!
//! [`FlowRouting::route`] is the one routing decision of the whole
//! workspace: [`FlowVector::build`] follows it here, and the simulator's
//! engine makes the same call at every hop. Its [`Route`] is either
//!
//! * one channel ([`Route::Channel`]: a down-link, a dimension hop or an
//!   ejection), which carries the full pair flow, or
//! * a bundle ([`Route::Bundle`]: the fat-tree's `p`-wide up-links) whose
//!   allowed members ([`member_allowed`]) split the flow evenly, matching
//!   the simulator's random-free-member rule in expectation.
//!
//! An ejection must leave the switch the flow stands at and land at the
//! destination, and routing loops are detected by a hop cap; each is a
//! typed [`WorkloadError::Routing`].
//!
//! Flows are stored per **unit per-PE message rate**, so one propagation
//! (`O(N² · distance)`) serves a whole load sweep: `λ_c = unit_flow(c) · λ₀`.

use crate::error::WorkloadError;
use crate::pattern::DestinationPattern;
use crate::Result;
use std::collections::HashMap;
use wormsim_topology::bft::{ButterflyFatTree, RouteChoice};
use wormsim_topology::graph::{ChannelNetwork, NodeKind};
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::ids::{ChannelId, NodeId, StationId};
use wormsim_topology::mesh::Mesh;

/// One routing decision: where a worm headed for a destination goes next
/// (see [`FlowRouting::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The unique next channel: a down-link, a dimension hop or an
    /// ejection. The simulator requests the channel's station with every
    /// member allowed, so the channel must be its station's only member,
    /// as every such channel of the shipped topologies is.
    Channel(ChannelId),
    /// Any allowed member of this station under the mask (see
    /// [`member_allowed`]); `u16::MAX` allows every member.
    Bundle(StationId, u16),
    /// No surviving route from this node to the destination.
    Unreachable,
}

/// Whether the member at position `pos` of a station's channel list is
/// allowed under a [`Route::Bundle`] mask: bit `k` is member `k`, and
/// members past bit 15 are always allowed.
#[inline]
#[must_use]
pub fn member_allowed(mask: u16, pos: usize) -> bool {
    pos >= 16 || mask & (1 << pos) != 0
}

/// Topologies and routers whose routing both the flow propagation and the
/// simulator follow.
pub trait FlowRouting {
    /// The channel network being routed on.
    fn network(&self) -> &ChannelNetwork;

    /// Where a worm headed for processor `dest` goes from switch `node`.
    fn route(&self, node: NodeId, dest: usize) -> Route;

    /// Whether a message from `src` can reach `dest` at all. Pristine
    /// topologies are fully connected (the default); fault-degraded
    /// routers override this so [`FlowVector::build`] reports partition
    /// as a typed [`WorkloadError::Disconnected`] instead of failing
    /// mid-propagation, and the simulator counts the message unroutable
    /// instead of admitting it.
    fn reachable(&self, src: usize, dest: usize) -> bool {
        let _ = (src, dest);
        true
    }
}

impl FlowRouting for ButterflyFatTree {
    fn network(&self) -> &ChannelNetwork {
        ButterflyFatTree::network(self)
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        match ButterflyFatTree::route(self, node, dest) {
            RouteChoice::Down(ch) => Route::Channel(ch),
            RouteChoice::Up(st) => Route::Bundle(st, u16::MAX),
        }
    }
}

impl FlowRouting for Hypercube {
    fn network(&self) -> &ChannelNetwork {
        Hypercube::network(self)
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        Route::Channel(Hypercube::route(self, node, dest).unwrap_or_else(|| {
            Hypercube::network(self).processors()[self.switch_address(node)].eject
        }))
    }
}

impl FlowRouting for Mesh {
    fn network(&self) -> &ChannelNetwork {
        Mesh::network(self)
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        Route::Channel(
            Mesh::route(self, node, dest).unwrap_or_else(|| {
                Mesh::network(self).processors()[self.switch_address(node)].eject
            }),
        )
    }
}

/// Per-channel flows of one (topology, pattern) combination, normalized to
/// a unit per-PE message rate.
#[derive(Debug, Clone)]
pub struct FlowVector {
    /// `unit_flows[c]` = worms/cycle on channel `c` when every PE offers
    /// one message per cycle.
    unit_flows: Vec<f64>,
    /// `transitions[c]` = (next channel, weight) continuation counts, in
    /// channel order. Terminal channels (ejections) have none.
    transitions: Vec<Vec<(usize, f64)>>,
    /// Pattern-weighted average message distance `D̄` in channels
    /// (injection and ejection included).
    avg_distance: f64,
    num_pes: usize,
    pattern: DestinationPattern,
}

/// One branch of a partially routed pair flow.
#[derive(Debug, Clone, Copy)]
struct Front {
    node: NodeId,
    via: usize,
    frac: f64,
    hops: usize,
}

impl FlowVector {
    /// Propagates `pattern`'s flow matrix through `routing`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Pattern`] when the pattern does not fit the
    /// machine, [`WorkloadError::Routing`] on routing loops or misrouted
    /// ejections, [`WorkloadError::Disconnected`] when the pattern
    /// demands a pair the (degraded) topology can no longer route.
    pub fn build<R: FlowRouting + ?Sized>(
        routing: &R,
        pattern: &DestinationPattern,
    ) -> Result<FlowVector> {
        let net = routing.network();
        let n_pe = net.num_processors();
        pattern.validate(n_pe)?;

        let n_ch = net.num_channels();
        let mut unit_flows = vec![0.0f64; n_ch];
        let mut transitions: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n_ch];
        let mut weighted_hops = 0.0f64;
        let hop_cap = 4 * net.num_nodes();

        let mut frontier: Vec<Front> = Vec::with_capacity(16);
        let mut next: Vec<Front> = Vec::with_capacity(16);

        for src in 0..n_pe {
            for dst in 0..n_pe {
                if dst == src {
                    continue;
                }
                let pair = pattern.dest_prob(src, dst, n_pe);
                if pair == 0.0 {
                    continue;
                }
                if !routing.reachable(src, dst) {
                    return Err(WorkloadError::Disconnected { src, dest: dst });
                }
                let inject = net.processors()[src].inject;
                unit_flows[inject.index()] += pair;
                frontier.clear();
                frontier.push(Front {
                    node: net.channel(inject).dst,
                    via: inject.index(),
                    frac: pair,
                    hops: 1,
                });
                while !frontier.is_empty() {
                    next.clear();
                    for f in &frontier {
                        if f.hops > hop_cap {
                            return Err(WorkloadError::Routing(format!(
                                "route {src}->{dst} exceeded {hop_cap} hops: routing loop?"
                            )));
                        }
                        let route = routing.route(f.node, dst);
                        let (members, mask) = match &route {
                            Route::Channel(ch) => (std::slice::from_ref(ch), u16::MAX),
                            Route::Bundle(st, mask) => {
                                (net.station(*st).channels.as_slice(), *mask)
                            }
                            Route::Unreachable => {
                                return Err(WorkloadError::Routing(format!(
                                    "route {src}->{dst}: no route from {}",
                                    f.node
                                )))
                            }
                        };
                        let allowed = (0..members.len())
                            .filter(|&k| member_allowed(mask, k))
                            .count();
                        if allowed == 0 {
                            return Err(WorkloadError::Routing(format!(
                                "route {src}->{dst}: no allowed bundle member"
                            )));
                        }
                        let share = f.frac / allowed as f64;
                        for (k, &ch) in members.iter().enumerate() {
                            if member_allowed(mask, k) {
                                advance(
                                    net,
                                    ch,
                                    f,
                                    share,
                                    dst,
                                    &mut unit_flows,
                                    &mut transitions,
                                    &mut weighted_hops,
                                    &mut next,
                                )?;
                            }
                        }
                    }
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
        }

        // Total unit message rate is one message per PE per cycle.
        let avg_distance = weighted_hops / n_pe as f64;

        let transitions = transitions
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, f64)> = m.into_iter().collect();
                v.sort_unstable_by_key(|&(to, _)| to);
                v
            })
            .collect();

        Ok(FlowVector {
            unit_flows,
            transitions,
            avg_distance,
            num_pes: n_pe,
            pattern: *pattern,
        })
    }

    /// Flow on channel `ch` at unit per-PE message rate.
    #[must_use]
    pub fn unit_flow(&self, ch: ChannelId) -> f64 {
        self.unit_flows[ch.index()]
    }

    /// Sum of all per-channel unit flows. Flow conservation pins this to
    /// `num_pes · avg_distance`: every message traverses `D̄` channels on
    /// average and each PE offers one message per unit time.
    #[must_use]
    pub fn sum_unit_flows(&self) -> f64 {
        self.unit_flows.iter().sum()
    }

    /// Continuation weights of channel `ch`: `(next channel, weight)`
    /// pairs in channel order; empty for terminal (ejection) channels.
    #[must_use]
    pub fn transitions(&self, ch: ChannelId) -> &[(usize, f64)] {
        &self.transitions[ch.index()]
    }

    /// Pattern-weighted average message distance `D̄` in channels.
    #[must_use]
    pub fn avg_distance(&self) -> f64 {
        self.avg_distance
    }

    /// Number of processors the flows were computed for.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of channels.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.unit_flows.len()
    }

    /// The pattern these flows realize.
    #[must_use]
    pub fn pattern(&self) -> &DestinationPattern {
        &self.pattern
    }

    /// Mean unit flow per channel of each
    /// [`ChannelClass`](wormsim_topology::graph::ChannelClass), as
    /// `(class, mean unit flow, channel count)` sorted by class. The
    /// symmetry-aggregated view the per-level fat-tree model consumes.
    #[must_use]
    pub fn class_mean_unit_flows(
        &self,
        net: &ChannelNetwork,
    ) -> Vec<(wormsim_topology::graph::ChannelClass, f64, usize)> {
        let mut acc: HashMap<wormsim_topology::graph::ChannelClass, (f64, usize)> = HashMap::new();
        for (idx, ch) in net.channels().iter().enumerate() {
            let e = acc.entry(ch.class).or_insert((0.0, 0));
            e.0 += self.unit_flows[idx];
            e.1 += 1;
        }
        let mut out: Vec<_> = acc
            .into_iter()
            .map(|(class, (sum, count))| (class, sum / count as f64, count))
            .collect();
        out.sort_by_key(|&(class, _, _)| class);
        out
    }
}

/// Pushes `share` of front `f` across channel `ch`, recording the flow,
/// the transition from the previous channel, and either terminating at the
/// destination PE (an ejection must leave the front's switch) or extending
/// the frontier.
#[allow(clippy::too_many_arguments)]
fn advance(
    net: &ChannelNetwork,
    ch: ChannelId,
    f: &Front,
    share: f64,
    dst: usize,
    unit_flows: &mut [f64],
    transitions: &mut [HashMap<usize, f64>],
    weighted_hops: &mut f64,
    next: &mut Vec<Front>,
) -> Result<()> {
    unit_flows[ch.index()] += share;
    *transitions[f.via].entry(ch.index()).or_insert(0.0) += share;
    let to = net.channel(ch).dst;
    match net.node(to).kind {
        NodeKind::Processor { index } => {
            if net.channel(ch).src != f.node {
                return Err(WorkloadError::Routing(format!(
                    "flow for destination {dst} ejected at {}, not at {}",
                    net.channel(ch).src,
                    f.node
                )));
            }
            if index != dst {
                return Err(WorkloadError::Routing(format!(
                    "flow for destination {dst} delivered to processor {index}"
                )));
            }
            *weighted_hops += share * (f.hops + 1) as f64;
            Ok(())
        }
        NodeKind::Switch { .. } => {
            next.push(Front {
                node: to,
                via: ch.index(),
                frac: share,
                hops: f.hops + 1,
            });
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::bft::BftParams;
    use wormsim_topology::graph::ChannelClass;

    fn bft(n: usize) -> ButterflyFatTree {
        ButterflyFatTree::new(BftParams::paper(n).unwrap())
    }

    #[test]
    fn uniform_bft_flows_match_closed_form_rates() {
        for n in [16usize, 64, 256] {
            let tree = bft(n);
            let params = *tree.params();
            let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
            // Eq. 14 per-channel rates at unit λ0: up ⟨l,l+1⟩ carries
            // P↑_l·(c/p)^l; down mirrors up one level below.
            let ratio = params.children() as f64 / params.parents() as f64;
            for (class, mean, count) in flows.class_mean_unit_flows(tree.network()) {
                let expect = match class {
                    ChannelClass::Injection | ChannelClass::Ejection => 1.0,
                    ChannelClass::Up { from } => params.p_up(from) * ratio.powi(from as i32),
                    ChannelClass::Down { from } => {
                        params.p_up(from - 1) * ratio.powi(from as i32 - 1)
                    }
                    ChannelClass::Dimension { .. } => unreachable!("no dims in a BFT"),
                };
                assert!(
                    (mean - expect).abs() < 1e-11 * (1.0 + expect.abs()),
                    "N={n} {class}: mean {mean} vs Eq.14 {expect} over {count} channels"
                );
            }
            // And the pattern-weighted distance is the closed-form D̄.
            assert!(
                (flows.avg_distance() - params.average_distance()).abs() < 1e-9,
                "N={n}: D̄ {} vs {}",
                flows.avg_distance(),
                params.average_distance()
            );
        }
    }

    #[test]
    fn flow_conservation_for_every_pattern() {
        let tree = bft(64);
        let mesh = Mesh::new(4, 2).unwrap();
        let cube = Hypercube::new(4).unwrap();
        let mut patterns = DestinationPattern::all_basic();
        patterns.push(DestinationPattern::Transpose); // 64 and 16 are square
        for p in &patterns {
            for (name, flows) in [
                ("bft64", FlowVector::build(&tree, p).unwrap()),
                ("mesh4x4", FlowVector::build(&mesh, p).unwrap()),
                ("cube16", FlowVector::build(&cube, p).unwrap()),
            ] {
                let expect = flows.num_pes() as f64 * flows.avg_distance();
                assert!(
                    (flows.sum_unit_flows() - expect).abs() < 1e-9 * expect,
                    "{name} {p:?}: Σλ {} vs N·D̄ {expect}",
                    flows.sum_unit_flows()
                );
            }
        }
    }

    #[test]
    fn hotspot_concentrates_on_target_ejection() {
        let tree = bft(64);
        let net = tree.network();
        let hot = DestinationPattern::HotSpot {
            fraction: 0.25,
            target: 5,
        };
        let flows = FlowVector::build(&tree, &hot).unwrap();
        let eject_of = |pe: usize| net.processors()[pe].eject;
        let hot_rate = flows.unit_flow(eject_of(5));
        // 63 senders: 62 cold ones at β + (1−β)/63, the hot PE receives
        // nothing from itself; plus uniform share from everyone else.
        let expect: f64 = (0..64)
            .filter(|&s| s != 5)
            .map(|s| hot.dest_prob(s, 5, 64))
            .sum();
        assert!((hot_rate - expect).abs() < 1e-12);
        let cold_rate = flows.unit_flow(eject_of(20));
        assert!(
            hot_rate > 10.0 * cold_rate,
            "hot {hot_rate} vs cold {cold_rate}"
        );
    }

    #[test]
    fn adaptive_bundles_split_evenly() {
        let tree = bft(64);
        let net = tree.network();
        let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
        for (l, _, node) in tree.switches() {
            if l < tree.num_levels() {
                let ups = tree.up_channels_of(node);
                let flows_up: Vec<f64> = ups.iter().map(|&c| flows.unit_flow(c)).collect();
                for w in flows_up.windows(2) {
                    assert!(
                        (w[0] - w[1]).abs() < 1e-12,
                        "bundle members must carry equal flow: {flows_up:?}"
                    );
                }
            }
        }
        let _ = net;
    }

    #[test]
    fn transitions_normalize_to_continuation_probabilities() {
        let tree = bft(16);
        let flows = FlowVector::build(&tree, &DestinationPattern::hot_spot()).unwrap();
        for ch in 0..flows.num_channels() {
            let total: f64 = flows
                .transitions(ChannelId(ch))
                .iter()
                .map(|&(_, w)| w)
                .sum();
            let flow = flows.unit_flow(ChannelId(ch));
            if flows.transitions(ChannelId(ch)).is_empty() {
                continue; // terminal
            }
            assert!(
                (total - flow).abs() < 1e-12,
                "channel {ch}: continuations {total} vs inflow {flow}"
            );
        }
    }

    #[test]
    fn permutation_flows_are_sparse() {
        let mesh = Mesh::new(4, 2).unwrap();
        let flows = FlowVector::build(&mesh, &DestinationPattern::NearestNeighbor).unwrap();
        // Every PE sends exactly one unit; injections all carry 1.
        for pe in 0..16 {
            let inj = mesh.network().processors()[pe].inject;
            assert!((flows.unit_flow(inj) - 1.0).abs() < 1e-12);
        }
        // Nearest-neighbor on a row-major mesh keeps most flow on short
        // paths: D̄ well below the uniform average.
        let uniform = FlowVector::build(&mesh, &DestinationPattern::Uniform).unwrap();
        assert!(flows.avg_distance() < uniform.avg_distance());
    }

    #[test]
    fn uniform_cube_flows_recover_the_exact_dimension_rates() {
        // Under e-cube routing every dimension channel carries
        // (N/2)/(N−1) units, whatever its dimension.
        let cube = Hypercube::new(5).unwrap();
        let flows = FlowVector::build(&cube, &DestinationPattern::Uniform).unwrap();
        let n = 32.0;
        let expect = (n / 2.0) / (n - 1.0);
        for (i, info) in cube.network().channels().iter().enumerate() {
            if matches!(info.class, ChannelClass::Dimension { .. }) {
                let flow = flows.unit_flow(ChannelId(i));
                assert!(
                    (flow - expect).abs() < 1e-12,
                    "channel {i}: {flow} vs {expect}"
                );
            }
        }
        assert!((flows.avg_distance() - cube.average_distance()).abs() < 1e-12);
    }

    #[test]
    fn uniform_mesh_distance_matches_the_closed_form() {
        let mesh = Mesh::new(5, 2).unwrap();
        let flows = FlowVector::build(&mesh, &DestinationPattern::Uniform).unwrap();
        assert!(
            (flows.avg_distance() - mesh.average_distance()).abs() < 1e-12,
            "flow D̄ {} vs closed form {}",
            flows.avg_distance(),
            mesh.average_distance()
        );
    }

    /// A mesh whose routing is broken in one of four ways.
    enum Broken {
        /// Never ejects: always hops to the first neighbouring switch.
        NeverEjects,
        /// Takes the destination's ejection channel from every switch,
        /// including the source's own.
        EjectsEverywhere,
        /// Offers a bundle whose mask allows no member.
        EmptyBundle,
        /// Admits every pair, then finds no route.
        Unreachable,
    }

    struct BrokenMesh(Mesh, Broken);

    impl FlowRouting for BrokenMesh {
        fn network(&self) -> &ChannelNetwork {
            self.0.network()
        }

        fn route(&self, node: NodeId, dest: usize) -> Route {
            let net = self.0.network();
            let out = &net.node(node).out_channels;
            match self.1 {
                Broken::NeverEjects => {
                    let to_switch = out.iter().copied().find(|&ch| {
                        matches!(net.node(net.channel(ch).dst).kind, NodeKind::Switch { .. })
                    });
                    Route::Channel(to_switch.unwrap())
                }
                Broken::EjectsEverywhere => Route::Channel(net.processors()[dest].eject),
                Broken::EmptyBundle => Route::Bundle(net.channel(out[0]).station, 0),
                Broken::Unreachable => Route::Unreachable,
            }
        }
    }

    fn build_broken(fault: Broken) -> Result<FlowVector> {
        let broken = BrokenMesh(Mesh::new(3, 2).unwrap(), fault);
        FlowVector::build(&broken, &DestinationPattern::Uniform)
    }

    #[test]
    fn looping_router_is_a_typed_routing_error() {
        assert!(matches!(
            build_broken(Broken::NeverEjects),
            Err(WorkloadError::Routing(_))
        ));
    }

    #[test]
    fn ejecting_at_the_wrong_switch_is_a_typed_routing_error() {
        assert!(matches!(
            build_broken(Broken::EjectsEverywhere),
            Err(WorkloadError::Routing(_))
        ));
    }

    #[test]
    fn empty_adaptive_bundle_is_a_typed_routing_error() {
        for fault in [Broken::EmptyBundle, Broken::Unreachable] {
            assert!(matches!(
                build_broken(fault),
                Err(WorkloadError::Routing(_))
            ));
        }
    }

    #[test]
    fn pattern_validation_surfaces() {
        let tree = bft(16);
        let bad = DestinationPattern::HotSpot {
            fraction: 0.1,
            target: 99,
        };
        assert!(matches!(
            FlowVector::build(&tree, &bad),
            Err(WorkloadError::Pattern(_))
        ));
    }
}
