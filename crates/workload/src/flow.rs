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
//! # The walk
//!
//! [`FlowVector::build`] routes every (source, destination) pair on its
//! own, source-major and destination-minor. A pair's flow enters on the
//! source's injection channel and is walked breadth first: the branches
//! of one depth, in the order the previous depth created them, each ask
//! the router where to go and split evenly over the allowed members
//! (`share = frac / allowed`). A hop adds its share to the channel's flow
//! and to the transition weight from the channel the branch came in on;
//! a delivery adds `share · (hops + 1)` to the distance sum behind `D̄`.
//!
//! That order is the builder's contract. Floating-point sums depend on
//! their order, and the benchmark pins model digests that hash these flows
//! to the bit. Pushing all sources' demand through each destination's
//! routing DAG at once would be far cheaper, but it re-orders the sums.
//! What the walk does own is its bookkeeping: it reads a dense per-channel
//! table instead of the network, and every channel owns one transition
//! slot per channel leaving the node it enters, so a hop costs array
//! indexing. The cost is `O(N² · branches per pair)`, counting a branch
//! once per hop: the distance on unique-path topologies, and more on the
//! fat-tree, whose up-bundles fork the walk.
//!
//! # Routing errors
//!
//! Each of these is a typed [`WorkloadError::Routing`]:
//!
//! * a routed channel that does not leave the node the flow stands at;
//! * a delivery to a processor other than the destination;
//! * [`Route::Unreachable`], or a bundle with no allowed member;
//! * a loop: a route longer than four times the node count, or one depth
//!   holding more branches than the network has channels. A loop through
//!   a bundle doubles the branches on every pass and trips the second
//!   bound long before the first. No loop-free route of a shipped
//!   topology comes near it: the widest, the fat-tree's `p^(n−1)`
//!   branches, stays below its `c·p^(n−1)` up-links from level `n − 1`.
//!
//! Flows are stored per **unit per-PE message rate**, so one propagation
//! serves a whole load sweep: `λ_c = unit_flow(c) · λ₀`.

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
    /// ejection. It must leave `node`, and both consumers enforce that:
    /// [`FlowVector::build`] returns [`WorkloadError::Routing`] and the
    /// simulator kills the worm as unroutable. The simulator requests the
    /// channel's station with every member allowed, so the channel must be
    /// its station's only member, as every such channel of the shipped
    /// topologies is.
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
    /// Every channel the route names must leave `node`: a route that does
    /// not is a [`WorkloadError::Routing`] in [`FlowVector::build`] and an
    /// unroutable message in the simulator.
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
    /// Every channel's (next channel, weight) continuation counts, channel
    /// after channel, each channel's run in channel order. Terminal
    /// channels (ejections) have none.
    transitions: Vec<(usize, f64)>,
    /// Channel `c`'s run is `transitions[transition_start[c]..transition_start[c + 1]]`.
    transition_start: Vec<usize>,
    /// Pattern-weighted average message distance `D̄` in channels
    /// (injection and ejection included).
    avg_distance: f64,
    num_pes: usize,
    pattern: DestinationPattern,
}

/// [`Link::delivers`] of a channel that ends at a switch.
const NO_PE: u32 = u32::MAX;

/// One channel as the walk reads it, so a hop costs array indexing instead
/// of `Channel` and `Node` reads.
#[derive(Debug, Clone, Copy)]
struct Link {
    src: u32,
    dst: u32,
    /// The processor this channel delivers to, or [`NO_PE`].
    delivers: u32,
    /// First of this channel's transition slots: one per channel leaving
    /// `dst`, in `out_channels` order.
    first_slot: u32,
    /// This channel's position in its source node's `out_channels`.
    pos: u32,
}

/// The [`Link`] of every channel, in id order, and the total slot count.
fn link_table(net: &ChannelNetwork) -> Result<(Vec<Link>, usize)> {
    let out_degree = |node: NodeId| net.node(node).out_channels.len();
    let slots: usize = net.channels().iter().map(|ch| out_degree(ch.dst)).sum();
    // Every index a `Link` or `Front` stores is below one of these counts,
    // so once they fit below `NO_PE` the `as u32` casts are lossless.
    let largest = slots.max(net.num_nodes()).max(net.num_channels());
    if largest >= NO_PE as usize {
        return Err(WorkloadError::Routing(format!(
            "network too large to route: {largest} nodes, channels or slots"
        )));
    }
    let mut pos = vec![0u32; net.num_channels()];
    for node in net.nodes() {
        for (k, ch) in node.out_channels.iter().enumerate() {
            pos[ch.index()] = k as u32;
        }
    }
    let mut links = Vec::with_capacity(net.num_channels());
    let mut first_slot = 0;
    for (ch, pos) in net.channels().iter().zip(pos) {
        links.push(Link {
            src: ch.src.index() as u32,
            dst: ch.dst.index() as u32,
            delivers: match net.node(ch.dst).kind {
                NodeKind::Processor { index } => index as u32,
                NodeKind::Switch { .. } => NO_PE,
            },
            first_slot,
            pos,
        });
        first_slot += out_degree(ch.dst) as u32;
    }
    Ok((links, slots))
}

/// One branch of a partially routed pair flow: it stands at `node`, having
/// entered it over channel `via` as its `hops`-th channel.
#[derive(Debug, Clone, Copy)]
struct Front {
    node: u32,
    via: u32,
    hops: u32,
    frac: f64,
}

impl FlowVector {
    /// Propagates `pattern`'s flow matrix through `routing`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Pattern`] when the pattern does not fit the
    /// machine, [`WorkloadError::Routing`] on routing loops, channels
    /// taken from a node the flow does not stand at, empty bundles or
    /// deliveries to the wrong processor, [`WorkloadError::Disconnected`]
    /// when the pattern demands a pair the (degraded) topology can no
    /// longer route.
    pub fn build<R: FlowRouting + ?Sized>(
        routing: &R,
        pattern: &DestinationPattern,
    ) -> Result<FlowVector> {
        let net = routing.network();
        let n_pe = net.num_processors();
        pattern.validate(n_pe)?;

        let n_ch = net.num_channels();
        let (links, n_slots) = link_table(net)?;
        let mut unit_flows = vec![0.0f64; n_ch];
        let mut slot_weight = vec![0.0f64; n_slots];
        let mut slot_hit = vec![false; n_slots];
        let mut weighted_hops = 0.0f64;
        // Below `u32::MAX`, so a branch's `hops + 1` cannot overflow.
        let hop_cap = u32::try_from(4 * net.num_nodes()).unwrap_or(u32::MAX - 1);

        let mut frontier: Vec<Front> = Vec::with_capacity(16);
        let mut next: Vec<Front> = Vec::with_capacity(16);

        for src in 0..n_pe {
            let inject = net.processors()[src].inject.index();
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
                unit_flows[inject] += pair;
                frontier.clear();
                frontier.push(Front {
                    node: links[inject].dst,
                    via: inject as u32,
                    hops: 1,
                    frac: pair,
                });
                while !frontier.is_empty() {
                    next.clear();
                    for f in &frontier {
                        if f.hops > hop_cap {
                            return Err(WorkloadError::Routing(format!(
                                "route {src}->{dst} exceeded {hop_cap} hops: routing loop?"
                            )));
                        }
                        let node = NodeId(f.node as usize);
                        let route = routing.route(node, dst);
                        let (members, mask) = match &route {
                            Route::Channel(ch) => (std::slice::from_ref(ch), u16::MAX),
                            Route::Bundle(st, mask) => {
                                (net.station(*st).channels.as_slice(), *mask)
                            }
                            Route::Unreachable => {
                                return Err(WorkloadError::Routing(format!(
                                    "route {src}->{dst}: no route from {node}"
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
                        let slots = links[f.via as usize].first_slot as usize;
                        for (k, &ch) in members.iter().enumerate() {
                            if !member_allowed(mask, k) {
                                continue;
                            }
                            let c = ch.index();
                            let link = links[c];
                            if link.src != f.node {
                                return Err(WorkloadError::Routing(format!(
                                    "route {src}->{dst}: {ch} leaves {}, not {node}",
                                    NodeId(link.src as usize)
                                )));
                            }
                            unit_flows[c] += share;
                            let slot = slots + link.pos as usize;
                            slot_weight[slot] += share;
                            slot_hit[slot] = true;
                            if link.delivers == NO_PE {
                                next.push(Front {
                                    node: link.dst,
                                    via: c as u32,
                                    hops: f.hops + 1,
                                    frac: share,
                                });
                            } else if link.delivers as usize == dst {
                                weighted_hops += share * f64::from(f.hops + 1);
                            } else {
                                return Err(WorkloadError::Routing(format!(
                                    "flow for destination {dst} delivered to processor {}",
                                    link.delivers
                                )));
                            }
                        }
                    }
                    if next.len() > n_ch {
                        return Err(WorkloadError::Routing(format!(
                            "route {src}->{dst}: {} branches after {} hops: routing loop?",
                            next.len(),
                            next[0].hops
                        )));
                    }
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
        }

        // Total unit message rate is one message per PE per cycle.
        let avg_distance = weighted_hops / n_pe as f64;

        let mut transitions = Vec::new();
        let mut transition_start = Vec::with_capacity(n_ch + 1);
        transition_start.push(0);
        for link in &links {
            let run = transitions.len();
            let first = link.first_slot as usize;
            let outs = &net.node(NodeId(link.dst as usize)).out_channels;
            for (slot, ch) in (first..).zip(outs) {
                if slot_hit[slot] {
                    transitions.push((ch.index(), slot_weight[slot]));
                }
            }
            transitions[run..].sort_unstable_by_key(|&(to, _)| to);
            transition_start.push(transitions.len());
        }

        Ok(FlowVector {
            unit_flows,
            transitions,
            transition_start,
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
        let c = ch.index();
        &self.transitions[self.transition_start[c]..self.transition_start[c + 1]]
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

    /// A mesh whose routing is broken in one of five ways.
    enum Broken {
        /// Never ejects: always hops to the first neighbouring switch.
        NeverEjects,
        /// Takes the destination's ejection channel from every switch,
        /// including the source's own.
        EjectsEverywhere,
        /// From every other switch, takes a channel into the destination's
        /// switch, wherever that channel starts; ejects there.
        Teleports,
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
                Broken::Teleports => {
                    let target = self.0.switch(dest);
                    if node == target {
                        return Route::Channel(net.processors()[dest].eject);
                    }
                    let into = net.node(target).in_channels.iter().copied().find(|&ch| {
                        matches!(net.node(net.channel(ch).src).kind, NodeKind::Switch { .. })
                    });
                    Route::Channel(into.unwrap())
                }
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
    fn teleporting_router_is_a_typed_routing_error() {
        // A channel that does not leave the switch the flow stands at
        // prices a hop no worm could take.
        assert!(matches!(
            build_broken(Broken::Teleports),
            Err(WorkloadError::Routing(_))
        ));
    }

    /// A fat-tree that climbs through the full up-bundle from every
    /// non-root switch and drops to child port 0 from the root, so each
    /// climb doubles the frontier and the route never ends.
    struct LoopingTree(ButterflyFatTree);

    impl FlowRouting for LoopingTree {
        fn network(&self) -> &ChannelNetwork {
            self.0.network()
        }

        fn route(&self, node: NodeId, _dest: usize) -> Route {
            match self.0.up_station_of(node) {
                Some(up) => Route::Bundle(up, u16::MAX),
                None => Route::Channel(self.0.down_channels_of(node)[0]),
            }
        }
    }

    #[test]
    fn looping_adaptive_router_is_a_typed_routing_error() {
        // The frontier doubles every second hop, so the hop cap alone
        // would be reached only after exhausting memory.
        let looping = LoopingTree(bft(16));
        match FlowVector::build(&looping, &DestinationPattern::Uniform) {
            Err(WorkloadError::Routing(msg)) => assert!(msg.contains("branches"), "{msg}"),
            other => panic!("expected a typed routing error, got {other:?}"),
        }
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
