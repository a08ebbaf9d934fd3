//! Fault-aware routing over a butterfly fat-tree.
//!
//! [`FaultedBft`] pairs a [`ButterflyFatTree`] with a [`FaultPlan`] and
//! precomputes exact reachability so routing under faults stays O(1) per
//! hop, deadlock-free, and provably never strands a worm mid-path:
//!
//! * `down_ok(s, d)` — the unique descent from switch `s` to leaf `d`
//!   (ejection channel included) is fully alive. Computed bottom-up.
//! * `can(s, d)` — a worm at `s` can still reach `d`:
//!   `can(s,d) = (d ∈ subtree(s) ∧ down_ok(s,d)) ∨ ∃k: alive(up_k) ∧
//!   can(parent_k, d)`. Computed top-down from the roots.
//!
//! Its [`FlowRouting::route`] only sends a worm down when the whole
//! descent is alive ([`Route::Channel`]), and only up through parents with
//! `can = true` ([`Route::Bundle`] with those parents' bits set) — so
//! routes stay monotone up-then-down (deadlock-free, exactly like the
//! pristine tree) and a worm that was admitted at its source can never
//! reach a switch with no onward choice. Unroutability is decided once, at
//! injection time, by [`FaultedBft::source_ok`] (the trait's `reachable`).
//!
//! The simulator's `FaultedBftRouter` routes through this type, and the
//! analytical model re-prices the degraded fabric through the ordinary
//! `FlowVector` → `FlowModelSweep::new_with_servers` pipeline over the
//! very same routing call.

use crate::error::FaultError;
use crate::plan::FaultPlan;
use wormsim_topology::bft::ButterflyFatTree;
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::ids::NodeId;
use wormsim_workload::{FlowRouting, Route};

/// A butterfly fat-tree with a fault plan applied and reachability
/// precomputed.
#[derive(Debug, Clone)]
pub struct FaultedBft<'a> {
    tree: &'a ButterflyFatTree,
    plan: FaultPlan,
    /// `can[slot·N + d]`: a worm at the switch can still reach leaf `d`.
    can: Vec<bool>,
    /// `down_ok[slot·N + d]`: the full descent to `d` is alive.
    down_ok: Vec<bool>,
    num_pes: usize,
}

impl<'a> FaultedBft<'a> {
    /// Applies `plan` to `tree` and precomputes reachability.
    ///
    /// # Errors
    ///
    /// [`FaultError::ShapeMismatch`] when the plan was built for a
    /// different network; [`FaultError::TooManyParents`] when `p > 8`
    /// (the up-bundle's member mask is a bitmask).
    pub fn new(tree: &'a ButterflyFatTree, plan: FaultPlan) -> Result<Self, FaultError> {
        plan.check_shape(tree.network())?;
        let p = tree.params().parents();
        if p > 8 {
            return Err(FaultError::TooManyParents(p));
        }
        let net = tree.network();
        let n_pe = tree.num_processors();
        let n_sw = tree.total_switches();
        let c = tree.params().children();
        let n_levels = tree.params().levels();
        let c_pow: Vec<usize> = (0..=n_levels).map(|l| c.pow(l)).collect();
        let slot = |node: NodeId| node.index() - n_pe;

        // Bottom-up: is the unique descent to each subtree leaf alive?
        let mut down_ok = vec![false; n_sw * n_pe];
        for (l, a, node) in tree.switches() {
            let s = slot(node);
            let g = tree.group(l, a);
            let block = c_pow[l as usize];
            for d in g * block..(g + 1) * block {
                let port = tree.child_port_for(l, d);
                let ch = tree.down_channels_of(node)[port];
                if plan.channel_dead(ch) {
                    continue;
                }
                down_ok[s * n_pe + d] = if l == 1 {
                    true // the level-1 down channel IS the ejection channel
                } else {
                    down_ok[slot(net.channel(ch).dst) * n_pe + d]
                };
            }
        }

        // Top-down from the roots: can each switch still reach each leaf?
        let mut can = vec![false; n_sw * n_pe];
        let all: Vec<(u32, usize, NodeId)> = tree.switches().collect();
        for &(l, a, node) in all.iter().rev() {
            let s = slot(node);
            let ups = tree.up_channels_of(node);
            for d in 0..n_pe {
                let direct = tree.subtree_contains(l, a, d) && down_ok[s * n_pe + d];
                can[s * n_pe + d] = direct
                    || ups.iter().any(|&up| {
                        !plan.channel_dead(up) && can[slot(net.channel(up).dst) * n_pe + d]
                    });
            }
        }

        Ok(Self {
            tree,
            plan,
            can,
            down_ok,
            num_pes: n_pe,
        })
    }

    /// The underlying pristine tree.
    #[must_use]
    pub fn tree(&self) -> &ButterflyFatTree {
        self.tree
    }

    /// The applied fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn slot(&self, node: NodeId) -> usize {
        node.index() - self.num_pes
    }

    /// Whether a worm at switch `node` can still reach leaf `dest`.
    #[must_use]
    pub fn can_reach(&self, node: NodeId, dest: usize) -> bool {
        self.can[self.slot(node) * self.num_pes + dest]
    }

    /// Whether a message from `src` to `dest` is routable at all: the
    /// injection channel is alive and the entry switch can reach `dest`
    /// (ejection aliveness is folded into `can` via `down_ok`).
    #[must_use]
    pub fn source_ok(&self, src: usize, dest: usize) -> bool {
        let ports = self.tree.network().processors()[src];
        if self.plan.channel_dead(ports.inject) {
            return false;
        }
        let entry = self.tree.network().channel(ports.inject).dst;
        self.can_reach(entry, dest)
    }

    /// Whether every ordered source–destination pair is still routable.
    /// Fault experiments use this to pick seeds whose knockouts degrade
    /// the fabric without partitioning it.
    #[must_use]
    pub fn fully_connected(&self) -> bool {
        (0..self.num_pes)
            .all(|src| (0..self.num_pes).all(|dest| src == dest || self.source_ok(src, dest)))
    }

    /// Number of unroutable ordered pairs (diagnostic counterpart of
    /// [`Self::fully_connected`]).
    #[must_use]
    pub fn disconnected_pairs(&self) -> usize {
        (0..self.num_pes)
            .map(|src| {
                (0..self.num_pes)
                    .filter(|&dest| src != dest && !self.source_ok(src, dest))
                    .count()
            })
            .sum()
    }
}

impl FlowRouting for FaultedBft<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.tree.network()
    }

    /// Fault-aware routing at switch `node` for destination `dest`: down
    /// when the whole descent is alive, else up through the parents that
    /// can still reach `dest`. For a worm admitted by
    /// [`FaultedBft::source_ok`] and steered only through allowed members
    /// this never returns [`Route::Unreachable`].
    fn route(&self, node: NodeId, dest: usize) -> Route {
        let (l, a) = self.tree.switch_coords(node);
        let s = self.slot(node);
        if self.tree.subtree_contains(l, a, dest) && self.down_ok[s * self.num_pes + dest] {
            let port = self.tree.child_port_for(l, dest);
            return Route::Channel(self.tree.down_channels_of(node)[port]);
        }
        let mut mask = 0u16;
        for (k, &up) in self.tree.up_channels_of(node).iter().enumerate() {
            if !self.plan.channel_dead(up)
                && self.can[self.slot(self.tree.network().channel(up).dst) * self.num_pes + dest]
            {
                mask |= 1 << k;
            }
        }
        match (mask, self.tree.up_station_of(node)) {
            (0, _) | (_, None) => Route::Unreachable,
            (_, Some(station)) => Route::Bundle(station, mask),
        }
    }

    fn reachable(&self, src: usize, dest: usize) -> bool {
        self.source_ok(src, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;
    use wormsim_topology::bft::{BftParams, RouteChoice};
    use wormsim_topology::graph::NodeKind;
    use wormsim_topology::ids::ChannelId;
    use wormsim_workload::member_allowed;

    fn bft(n: usize) -> ButterflyFatTree {
        ButterflyFatTree::new(BftParams::paper(n).unwrap())
    }

    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn empty_plan_matches_pristine_routing() {
        let tree = bft(64);
        let faulted = FaultedBft::new(&tree, FaultPlan::none(tree.network())).unwrap();
        assert!(faulted.fully_connected());
        assert_eq!(faulted.disconnected_pairs(), 0);
        let p = tree.params().parents();
        let full_mask = (1u16 << p) - 1;
        for (_, _, node) in tree.switches() {
            for dest in [0usize, 13, 42, 63] {
                match (tree.route(node, dest), faulted.route(node, dest)) {
                    (RouteChoice::Down(a), Route::Channel(b)) => assert_eq!(a, b),
                    (RouteChoice::Up(st), Route::Bundle(station, mask)) => {
                        assert_eq!(st, station);
                        assert_eq!(mask, full_mask, "empty plan allows every parent");
                    }
                    (a, b) => panic!("pristine {a:?} vs faulted {b:?}"),
                }
            }
        }
    }

    #[test]
    fn dead_up_link_is_masked_out() {
        let tree = bft(16);
        let net = tree.network();
        let node = tree.switch(1, 0);
        let mut plan = FaultPlan::none(net);
        plan.kill_channel(net, tree.up_channels_of(node)[0])
            .unwrap();
        let faulted = FaultedBft::new(&tree, plan).unwrap();
        assert!(faulted.fully_connected(), "p=2 survives one dead up link");
        match faulted.route(node, 15) {
            Route::Bundle(_, mask) => assert_eq!(mask, 0b10),
            other => panic!("expected masked up hop, got {other:?}"),
        }
    }

    #[test]
    fn broken_descent_is_avoided_by_parent_choice_below_it() {
        // Kill the down channel S(2,0) -> S(1,0) at N=64. In a butterfly
        // fat-tree the detour happens *below* the break: a worm bound for
        // leaf 0 from outside must pick a level-1 parent whose descent is
        // intact (S(2,1)), because the roots above S(2,0) descend to leaf
        // 0 only through S(2,0) itself. The switch above the break becomes
        // a genuine dead end for that leaf — and `can` keeps admitted
        // worms from ever entering it.
        let tree = bft(64);
        let net = tree.network();
        let s20 = tree.switch(2, 0);
        let s10 = tree.switch(1, 0);
        let down = tree.down_channels_of(s20)[0];
        assert_eq!(net.channel(down).dst, s10);
        let mut plan = FaultPlan::none(net);
        plan.kill_channel(net, down).unwrap();
        let faulted = FaultedBft::new(&tree, plan).unwrap();
        assert!(faulted.fully_connected());
        // S(2,0) can no longer serve leaf 0 at all (its roots descend to
        // leaf 0 only through it), so it reports Unreachable...
        assert!(!faulted.can_reach(s20, 0));
        assert_eq!(faulted.route(s20, 0), Route::Unreachable);
        // ...and every level-1 switch outside leaf 0's block masks S(2,0)
        // out of its up bundle when routing there, which is why no
        // admitted worm ever strands at S(2,0).
        let s11 = tree.switch(1, 1);
        let bad_parent: Vec<bool> = tree
            .up_channels_of(s11)
            .iter()
            .map(|&up| net.channel(up).dst == s20)
            .collect();
        match faulted.route(s11, 0) {
            Route::Bundle(_, mask) => {
                for (k, &is_bad) in bad_parent.iter().enumerate() {
                    assert_eq!(mask & (1 << k) == 0, is_bad, "parent {k}");
                }
            }
            other => panic!("expected a masked up hop, got {other:?}"),
        }
        // From S(1,0) itself the descent (= ejection) is intact.
        assert!(matches!(faulted.route(s10, 0), Route::Channel(_)));
    }

    #[test]
    fn disconnection_is_reported_not_panicked() {
        // Kill every down channel into S(1,0) at N=16: leaves 0..4 become
        // unreachable from outside, but can still send and talk locally.
        let tree = bft(16);
        let net = tree.network();
        let s10 = tree.switch(1, 0);
        let mut plan = FaultPlan::none(net);
        for ch in net.node(s10).in_channels.iter().filter(|&&ch| {
            !matches!(
                net.channel(ch).class,
                wormsim_topology::ChannelClass::Injection
            )
        }) {
            plan.kill_channel(net, *ch).unwrap();
        }
        let faulted = FaultedBft::new(&tree, plan).unwrap();
        assert!(!faulted.fully_connected());
        for src in 4..16 {
            for dest in 0..4 {
                assert!(!faulted.source_ok(src, dest), "{src}->{dest}");
            }
        }
        // Leaves 0..4 still send everywhere and receive from each other.
        for src in 0..4 {
            for dest in 0..16 {
                if src != dest {
                    assert!(faulted.source_ok(src, dest), "{src}->{dest}");
                }
            }
        }
        assert_eq!(faulted.disconnected_pairs(), 12 * 4);
    }

    #[test]
    fn dead_switch_cuts_off_its_leaves() {
        let tree = bft(16);
        let net = tree.network();
        let mut plan = FaultPlan::none(net);
        plan.kill_switch(net, tree.switch(1, 3)).unwrap();
        let faulted = FaultedBft::new(&tree, plan).unwrap();
        for leaf in 12..16 {
            for other in 0..12 {
                assert!(!faulted.source_ok(leaf, other));
                assert!(!faulted.source_ok(other, leaf));
            }
        }
        for src in 0..12 {
            for dest in 0..12 {
                if src != dest {
                    assert!(faulted.source_ok(src, dest));
                }
            }
        }
    }

    #[test]
    fn admitted_worms_never_strand_under_random_plans() {
        // For random plans, walk every admitted pair taking an arbitrary
        // allowed member at each adaptive hop: the walk must reach the
        // destination without ever seeing Unreachable or a dead channel.
        for n in [16usize, 64] {
            let tree = bft(n);
            let net = tree.network();
            for seed in 0..8u64 {
                let spec = FaultSpec::new(0.15, 0.05, seed).unwrap();
                let faulted = FaultedBft::new(&tree, FaultPlan::build(net, &spec)).unwrap();
                let mut walk_rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D);
                for src in 0..n {
                    for dest in 0..n {
                        if src == dest || !faulted.source_ok(src, dest) {
                            continue;
                        }
                        let mut cur = net.channel(net.processors()[src].inject).dst;
                        let mut hops = 0usize;
                        loop {
                            hops += 1;
                            assert!(hops <= 4 * tree.num_levels() as usize, "routing loop");
                            let ch = match faulted.route(cur, dest) {
                                Route::Channel(ch) => ch,
                                Route::Bundle(station, mask) => {
                                    assert_ne!(mask, 0);
                                    let members = &net.station(station).channels;
                                    let allowed: Vec<ChannelId> = members
                                        .iter()
                                        .enumerate()
                                        .filter(|&(k, _)| member_allowed(mask, k))
                                        .map(|(_, &c)| c)
                                        .collect();
                                    let pick = (mix(&mut walk_rng) as usize) % allowed.len();
                                    allowed[pick]
                                }
                                Route::Unreachable => {
                                    panic!("admitted worm {src}->{dest} stranded at {cur}")
                                }
                            };
                            assert!(!faulted.plan().channel_dead(ch));
                            let to = net.channel(ch).dst;
                            match net.node(to).kind {
                                NodeKind::Processor { index } => {
                                    assert_eq!(index, dest);
                                    break;
                                }
                                NodeKind::Switch { .. } => cur = to,
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shape_and_parent_guards() {
        let tree16 = bft(16);
        let tree64 = bft(64);
        assert!(matches!(
            FaultedBft::new(&tree16, FaultPlan::none(tree64.network())),
            Err(FaultError::ShapeMismatch { .. })
        ));
        let wide = ButterflyFatTree::new(BftParams::new(2, 9, 2).unwrap());
        assert!(matches!(
            FaultedBft::new(&wide, FaultPlan::none(wide.network())),
            Err(FaultError::TooManyParents(9))
        ));
    }
}
