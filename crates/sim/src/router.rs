//! The simulator's routers: each topology's [`FlowRouting`] plus a label
//! and an optional fault plan.
//!
//! The engine is topology-agnostic: at each hop it asks the router one
//! question ([`FlowRouting::route`], the same call the analytical model's
//! flow vectors follow) — which channel the worm's head takes next
//! ([`Route::Channel`], a single-channel station: down-links,
//! dimension-order hops, ejections) or which members of a multi-channel
//! station it may be granted ([`Route::Bundle`]: the butterfly fat-tree's
//! up-link bundles, where the engine picks a random free allowed member —
//! the paper's adaptive up-link rule). Every router except [`BftRouter`]
//! owns a [`FaultPlan`], possibly empty, and routes around it; under an
//! empty plan it routes exactly as the pristine topology does. Since
//! every router is a [`FlowRouting`], `FlowVector::build(&router, …)`
//! prices exactly what the engine routes.

use wormsim_faults::{FaultError, FaultPlan, FaultedBft};
use wormsim_topology::bft::ButterflyFatTree;
use wormsim_topology::graph::{ChannelNetwork, NodeKind};
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::ids::NodeId;
use wormsim_topology::mesh::Mesh;
use wormsim_workload::{FlowRouting, Route};

/// A [`FlowRouting`] the simulator can run: the routing itself, a report
/// label, and the fault plan it routes around. Admission asks
/// [`FlowRouting::reachable`]: messages whose every route is dead are
/// counted as unroutable instead of becoming worms.
pub trait Router: FlowRouting + Sync {
    /// Short topology label for reports.
    fn label(&self) -> String;

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

/// The route of a unique-path topology (e-cube, dimension order) around
/// `plan`: unique paths leave nothing to route *around*, so a dead next
/// channel makes the destination unreachable.
fn unique_path_route<T: FlowRouting>(
    topo: &T,
    plan: &FaultPlan,
    node: NodeId,
    dest: usize,
) -> Route {
    match topo.route(node, dest) {
        Route::Channel(ch) if plan.channel_dead(ch) => Route::Unreachable,
        route => route,
    }
}

/// Whether the unique path of `topo` from `src` to `dest` (injection and
/// ejection included) is fully alive under `plan`. An empty plan answers
/// `true` without walking the path.
fn path_alive<T: FlowRouting>(topo: &T, plan: &FaultPlan, src: usize, dest: usize) -> bool {
    if plan.is_empty() {
        return true;
    }
    let net = topo.network();
    let inject = net.processors()[src].inject;
    if plan.channel_dead(inject) {
        return false;
    }
    let mut node = net.channel(inject).dst;
    while let Route::Channel(ch) = unique_path_route(topo, plan, node, dest) {
        node = net.channel(ch).dst;
        if matches!(net.node(node).kind, NodeKind::Processor { .. }) {
            return true;
        }
    }
    false
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

impl FlowRouting for BftRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.tree.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        FlowRouting::route(self.tree, node, dest)
    }
}

impl Router for BftRouter<'_> {
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

impl FlowRouting for HypercubeRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.cube.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        unique_path_route(self.cube, &self.plan, node, dest)
    }

    fn reachable(&self, src: usize, dest: usize) -> bool {
        path_alive(self.cube, &self.plan, src, dest)
    }
}

impl Router for HypercubeRouter<'_> {
    fn label(&self) -> String {
        format!(
            "hypercube(d={}){}",
            self.cube.dim(),
            fault_suffix(&self.plan)
        )
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

impl FlowRouting for MeshRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.mesh.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        unique_path_route(self.mesh, &self.plan, node, dest)
    }

    fn reachable(&self, src: usize, dest: usize) -> bool {
        path_alive(self.mesh, &self.plan, src, dest)
    }
}

impl Router for MeshRouter<'_> {
    fn label(&self) -> String {
        format!(
            "mesh(k={},n={}){}",
            self.mesh.radix(),
            self.mesh.dims(),
            fault_suffix(&self.plan)
        )
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
/// channels and stations, same RNG draws (its up-bundle masks then allow
/// every member).
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

impl FlowRouting for FaultedBftRouter<'_> {
    fn network(&self) -> &ChannelNetwork {
        self.bft.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        self.bft.route(node, dest)
    }

    fn reachable(&self, src: usize, dest: usize) -> bool {
        self.bft.reachable(src, dest)
    }
}

impl Router for FaultedBftRouter<'_> {
    fn label(&self) -> String {
        let pristine = BftRouter::new(self.bft.tree()).label();
        format!("{pristine}{}", fault_suffix(self.bft.plan()))
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(self.bft.plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::bft::BftParams;
    use wormsim_topology::ids::StationId;

    /// The station every member of which a bundle route allows.
    fn open_bundle(route: Route) -> StationId {
        match route {
            Route::Bundle(st, u16::MAX) => st,
            other => panic!("expected an open bundle, got {other:?}"),
        }
    }

    /// Walks from PE `src` to PE `dest`, taking the routed channel or the
    /// first member of an open bundle; returns the channels crossed,
    /// injection and ejection included.
    fn walk<R: Router>(router: &R, src: usize, dest: usize) -> usize {
        let net = router.network();
        let mut node = net.channel(net.processors()[src].inject).dst;
        for hops in 2..=16 {
            let ch = match router.route(node, dest) {
                Route::Channel(ch) => ch,
                route => net.station(open_bundle(route)).channels[0],
            };
            node = net.channel(ch).dst;
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
        let st = open_bundle(router.route(s10, 63)); // 63 outside S(1,0)'s subtree
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
