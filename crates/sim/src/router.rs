//! Per-topology routing logic behind one trait.
//!
//! The engine is topology-agnostic: at each hop it asks the router one
//! question ([`Router::route`]) — which arbitration *station* the worm's
//! head requests next, and which of its members it may be granted.
//! Single-channel stations model deterministic routes (down-links,
//! dimension-order hops); the butterfly fat-tree's up-link bundles are
//! multi-channel stations and the engine picks a random free allowed
//! member on grant (the paper's adaptive up-link rule). Every router
//! except [`BftRouter`] owns a [`FaultPlan`], possibly empty, and routes
//! around it; under an empty plan it routes exactly as the pristine
//! topology does.

use wormsim_faults::{DegradedChoice, FaultError, FaultPlan, FaultedBft};
use wormsim_topology::bft::{ButterflyFatTree, RouteChoice};
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::ids::{ChannelId, NodeId, StationId};
use wormsim_topology::mesh::Mesh;

/// One routing decision (see [`Router::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Request this station; every member channel may be granted.
    Open(StationId),
    /// Request this station, but only members whose bit is set in the
    /// mask (bit `k` = member position `k` in the station's channel list)
    /// may be granted — the others are dead or lead into dead fabric.
    /// The mask is never 0 (that case is [`Route::Unreachable`]).
    Restricted(StationId, u16),
    /// No surviving route from this node to the destination.
    Unreachable,
}

/// Topology-specific routing decisions over a shared channel network.
pub trait Router: Sync {
    /// The network being routed on.
    fn network(&self) -> &ChannelNetwork;

    /// The station a worm headed for processor `dest` requests from switch
    /// `node`, and which of its members it may be granted — the engine's
    /// only per-hop routing call. Ejection channels are stations like any
    /// other; the engine detects arrival by the granted channel's endpoint
    /// being a PE.
    fn route(&self, node: NodeId, dest: usize) -> Route;

    /// Short topology label for reports.
    fn label(&self) -> String;

    /// Whether a message from processor `src` can reach processor `dest`
    /// at all through the surviving fabric. Asked at injection time:
    /// messages whose every route is dead are counted as unroutable
    /// instead of becoming worms.
    fn source_can_reach(&self, src: usize, dest: usize) -> bool {
        let _ = (src, dest);
        true
    }

    /// The fault plan this router routes around, if any. The engine reads
    /// it once, at construction, to take every lane of a dead channel out
    /// of service; `None` (the default) and an empty plan take none.
    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }
}

/// Label suffix for a faulted router: empty for an empty plan (so a
/// no-fault router is label-identical to the pristine topology's, which
/// the differential harness relies on), else a compact knockout count.
fn fault_suffix(plan: &FaultPlan) -> String {
    if plan.is_empty() {
        String::new()
    } else {
        format!(
            "+faults(l={},s={})",
            plan.dead_channel_count(),
            plan.dead_switch_count()
        )
    }
}

/// The route of a unique-path router (e-cube, dimension order) over
/// channel `ch`: unique paths leave nothing to route *around*, so a dead
/// channel makes the destination unreachable.
fn open_unless_dead(net: &ChannelNetwork, plan: &FaultPlan, ch: ChannelId) -> Route {
    if plan.channel_dead(ch) {
        Route::Unreachable
    } else {
        Route::Open(net.channel(ch).station)
    }
}

/// Whether the unique path from `src` to `dest` (injection and ejection
/// included) is fully alive, where `next_hop` gives a switch's next
/// channel toward `dest` (`None` at the destination's switch). An empty
/// plan answers `true` without walking the path.
fn path_alive(
    net: &ChannelNetwork,
    plan: &FaultPlan,
    src: usize,
    dest: usize,
    next_hop: impl Fn(NodeId) -> Option<ChannelId>,
) -> bool {
    if plan.is_empty() {
        return true;
    }
    let ports = net.processors();
    if plan.channel_dead(ports[src].inject) || plan.channel_dead(ports[dest].eject) {
        return false;
    }
    let mut node = net.channel(ports[src].inject).dst;
    while let Some(ch) = next_hop(node) {
        if plan.channel_dead(ch) {
            return false;
        }
        node = net.channel(ch).dst;
    }
    true
}

/// Butterfly fat-tree routing: up through the `p`-server bundle while the
/// destination is outside the current subtree, then down the unique path.
/// Fault-free; [`FaultedBftRouter`] routes a tree around a fault plan.
#[derive(Debug, Clone, Copy)]
pub struct BftRouter<'a> {
    tree: &'a ButterflyFatTree,
}

impl<'a> BftRouter<'a> {
    /// Wraps a constructed tree.
    #[must_use]
    pub fn new(tree: &'a ButterflyFatTree) -> Self {
        Self { tree }
    }

    /// The underlying tree.
    #[must_use]
    pub fn tree(&self) -> &'a ButterflyFatTree {
        self.tree
    }
}

impl Router for BftRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.tree.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        Route::Open(match self.tree.route(node, dest) {
            RouteChoice::Down(ch) => self.tree.network().channel(ch).station,
            RouteChoice::Up(st) => st,
        })
    }

    fn label(&self) -> String {
        let p = self.tree.params();
        format!(
            "bft(c={},p={},N={})",
            p.children(),
            p.parents(),
            p.num_processors()
        )
    }
}

/// Hypercube e-cube routing (lowest differing bit first) around a fault
/// plan. E-cube paths are unique, so a dead channel on a pair's path
/// makes the pair unroutable (reported at injection time).
#[derive(Debug, Clone)]
pub struct HypercubeRouter<'a> {
    cube: &'a Hypercube,
    plan: FaultPlan,
}

impl<'a> HypercubeRouter<'a> {
    /// Wraps a constructed hypercube, with no faults.
    #[must_use]
    pub fn new(cube: &'a Hypercube) -> Self {
        Self {
            cube,
            plan: FaultPlan::none(cube.network()),
        }
    }

    /// Routes `cube` around `plan`.
    ///
    /// # Errors
    ///
    /// [`FaultError::ShapeMismatch`] when the plan was built for a
    /// different network.
    pub fn with_faults(cube: &'a Hypercube, plan: FaultPlan) -> Result<Self, FaultError> {
        plan.check_shape(cube.network())?;
        Ok(Self { cube, plan })
    }
}

impl Router for HypercubeRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.cube.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        let net = self.cube.network();
        let ch = self
            .cube
            .route(node, dest)
            .unwrap_or_else(|| net.processors()[self.cube.switch_address(node)].eject);
        open_unless_dead(net, &self.plan, ch)
    }

    fn label(&self) -> String {
        format!(
            "hypercube(d={}){}",
            self.cube.dim(),
            fault_suffix(&self.plan)
        )
    }

    fn source_can_reach(&self, src: usize, dest: usize) -> bool {
        path_alive(self.cube.network(), &self.plan, src, dest, |node| {
            self.cube.route(node, dest)
        })
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(&self.plan)
    }
}

/// k-ary n-mesh dimension-order routing around a fault plan. Like the
/// hypercube, dimension-order paths are unique: the plan decides which
/// pairs survive, not which way worms go.
#[derive(Debug, Clone)]
pub struct MeshRouter<'a> {
    mesh: &'a Mesh,
    plan: FaultPlan,
}

impl<'a> MeshRouter<'a> {
    /// Wraps a constructed mesh, with no faults.
    #[must_use]
    pub fn new(mesh: &'a Mesh) -> Self {
        Self {
            mesh,
            plan: FaultPlan::none(mesh.network()),
        }
    }

    /// Routes `mesh` around `plan`.
    ///
    /// # Errors
    ///
    /// [`FaultError::ShapeMismatch`] when the plan was built for a
    /// different network.
    pub fn with_faults(mesh: &'a Mesh, plan: FaultPlan) -> Result<Self, FaultError> {
        plan.check_shape(mesh.network())?;
        Ok(Self { mesh, plan })
    }
}

impl Router for MeshRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.mesh.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        let net = self.mesh.network();
        let ch = self
            .mesh
            .route(node, dest)
            .unwrap_or_else(|| net.processors()[self.mesh.switch_address(node)].eject);
        open_unless_dead(net, &self.plan, ch)
    }

    fn label(&self) -> String {
        format!(
            "mesh(k={},n={}){}",
            self.mesh.radix(),
            self.mesh.dims(),
            fault_suffix(&self.plan)
        )
    }

    fn source_can_reach(&self, src: usize, dest: usize) -> bool {
        path_alive(self.mesh.network(), &self.plan, src, dest, |node| {
            self.mesh.route(node, dest)
        })
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(&self.plan)
    }
}

/// Butterfly fat-tree routing around a fault plan: adaptive up bundles
/// restricted to surviving parents that can still reach the destination,
/// descents taken only when fully alive (see [`wormsim_faults::FaultedBft`]
/// for the reachability computation). With an empty plan this router is
/// bit-for-bit interchangeable with [`BftRouter`] — same label, same
/// stations, same RNG draws (its up-bundle masks then allow every member).
#[derive(Debug, Clone)]
pub struct FaultedBftRouter<'a> {
    bft: FaultedBft<'a>,
}

impl<'a> FaultedBftRouter<'a> {
    /// Applies `plan` to `tree` and precomputes degraded reachability.
    ///
    /// # Errors
    ///
    /// As [`FaultedBft::new`]: a plan built for a different network, or
    /// `p > 8` parent ports (the member mask is a bitmask).
    pub fn new(tree: &'a ButterflyFatTree, plan: FaultPlan) -> Result<Self, FaultError> {
        Ok(Self {
            bft: FaultedBft::new(tree, plan)?,
        })
    }

    /// The fault-aware tree (reachability queries, flow routing).
    #[must_use]
    pub fn bft(&self) -> &FaultedBft<'a> {
        &self.bft
    }
}

impl Router for FaultedBftRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.bft.tree().network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        match self.bft.route(node, dest) {
            DegradedChoice::Down(ch) => Route::Open(self.bft.tree().network().channel(ch).station),
            DegradedChoice::Up { station, mask } => Route::Restricted(station, mask),
            DegradedChoice::Unreachable => Route::Unreachable,
        }
    }

    fn label(&self) -> String {
        let pristine = BftRouter::new(self.bft.tree()).label();
        format!("{pristine}{}", fault_suffix(self.bft.plan()))
    }

    fn source_can_reach(&self, src: usize, dest: usize) -> bool {
        self.bft.source_ok(src, dest)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(self.bft.plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::bft::BftParams;
    use wormsim_topology::graph::NodeKind;

    /// The station of an unrestricted route.
    fn open_station(route: Route) -> StationId {
        match route {
            Route::Open(st) => st,
            other => panic!("expected an open route, got {other:?}"),
        }
    }

    /// Walks from PE `src` to PE `dest`, always taking the first channel
    /// of the requested station; returns the channels crossed, injection
    /// and ejection included.
    fn walk<R: Router>(router: &R, src: usize, dest: usize) -> usize {
        let net = router.network();
        let mut node = net.channel(net.processors()[src].inject).dst;
        for hops in 2..=16 {
            let st = open_station(router.route(node, dest));
            node = net.channel(net.station(st).channels[0]).dst;
            if let NodeKind::Processor { index } = net.node(node).kind {
                assert_eq!(index, dest);
                return hops;
            }
        }
        panic!("the walk from {src} to {dest} must terminate");
    }

    #[test]
    fn bft_router_walks_a_full_path() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let router = BftRouter::new(&tree);
        assert_eq!(walk(&router, 0, 63), tree.params().distance(0, 63));
        assert!(router.label().contains("N=64"));
    }

    #[test]
    fn bft_router_up_station_has_two_members() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let router = BftRouter::new(&tree);
        let net = router.network();
        let s10 = tree.switch(1, 0);
        let st = open_station(router.route(s10, 63)); // 63 outside S(1,0)'s subtree
        assert_eq!(net.station(st).servers(), 2);
    }

    #[test]
    fn hypercube_router_reaches_destination() {
        let cube = Hypercube::new(4).unwrap();
        // Hamming(0, 0b1011) = 3, plus inject/eject.
        assert_eq!(walk(&HypercubeRouter::new(&cube), 0b0000, 0b1011), 3 + 2);
    }

    #[test]
    fn mesh_router_reaches_destination() {
        let mesh = Mesh::new(4, 2).unwrap();
        let router = MeshRouter::new(&mesh);
        assert_eq!(walk(&router, 0, 15), mesh.hop_distance(0, 15) + 2);
        assert!(router.label().contains("mesh"));
    }

    #[test]
    fn unique_path_routers_reject_plans_for_other_networks() {
        let (mesh, cube) = (Mesh::new(4, 2).unwrap(), Hypercube::new(4).unwrap());
        let for_cube = FaultPlan::none(cube.network());
        assert!(MeshRouter::with_faults(&mesh, for_cube).is_err());
        assert!(HypercubeRouter::with_faults(&cube, FaultPlan::none(mesh.network())).is_err());
    }
}
