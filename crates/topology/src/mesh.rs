//! The k-ary n-mesh (k-ary n-cube without wraparound), substrate for the
//! Dally-style baseline comparisons.
//!
//! Like the hypercube this is a direct network: each of the `kⁿ` nodes is a
//! PE co-located with a switch. Dimension-order routing (correct dimension
//! 0 first, then 1, …) is deadlock-free on a mesh without virtual channels,
//! which keeps the flit-level simulator honest without implementing a
//! virtual-channel layer. (Dally's 1990 analysis targets the wrapped torus,
//! whose honest simulation would need virtual channels for deadlock
//! freedom; the mesh covers the k-ary n-cube family within scope — see
//! DESIGN.md §3. The mesh is modeled analytically by the per-station
//! flow model in `wormsim-core::flows`.)

use crate::graph::{ChannelClass, ChannelNetwork, NodeKind, ProcessorPorts};
use crate::ids::{ChannelId, NodeId};
use std::fmt;

/// Why a [`Mesh`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MeshError {
    /// The radix `k` must be at least 2.
    RadixTooSmall,
    /// The dimension count must be in `1..=8`.
    BadDimensions,
    /// `kⁿ` would exceed the supported node count.
    TooLarge,
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::RadixTooSmall => write!(f, "mesh radix must be >= 2"),
            MeshError::BadDimensions => write!(f, "mesh dimensions must be in 1..=8"),
            MeshError::TooLarge => write!(f, "mesh too large (node count would overflow)"),
        }
    }
}

impl std::error::Error for MeshError {}

/// A k-ary n-mesh with `kⁿ` processors.
#[derive(Debug, Clone)]
pub struct Mesh {
    radix: usize,
    dims: u32,
    network: ChannelNetwork,
    /// `plus_channel[v][d]` / `minus_channel[v][d]`: channel from switch `v`
    /// in the +/− direction of dimension `d`, if it exists.
    plus_channel: Vec<Vec<Option<ChannelId>>>,
    minus_channel: Vec<Vec<Option<ChannelId>>>,
    switch_node: Vec<NodeId>,
}

impl Mesh {
    /// Builds a `radix`-ary `dims`-mesh.
    ///
    /// # Errors
    ///
    /// [`MeshError::RadixTooSmall`] when `radix < 2`,
    /// [`MeshError::BadDimensions`] when `dims` is outside `1..=8`, and
    /// [`MeshError::TooLarge`] when `kⁿ` would overflow the supported
    /// node count.
    pub fn new(radix: usize, dims: u32) -> Result<Self, MeshError> {
        if radix < 2 {
            return Err(MeshError::RadixTooSmall);
        }
        if !(1..=8).contains(&dims) {
            return Err(MeshError::BadDimensions);
        }
        let n = radix.checked_pow(dims).ok_or(MeshError::TooLarge)?;
        if n > 1 << 24 {
            return Err(MeshError::TooLarge);
        }
        let mut network = ChannelNetwork::empty();
        for x in 0..n {
            let id = network.add_node(NodeKind::Processor { index: x });
            debug_assert_eq!(id.index(), x);
        }
        let switch_node: Vec<NodeId> = (0..n)
            .map(|x| {
                network.add_node(NodeKind::Switch {
                    level: 0,
                    address: x,
                })
            })
            .collect();
        for (x, &sw) in switch_node.iter().enumerate() {
            let inject = network.add_channel(NodeId(x), sw, ChannelClass::Injection);
            let eject = network.add_channel(sw, NodeId(x), ChannelClass::Ejection);
            network.add_processor_ports(ProcessorPorts {
                node: NodeId(x),
                inject,
                eject,
            });
        }
        let mut plus_channel = vec![vec![None; dims as usize]; n];
        let mut minus_channel = vec![vec![None; dims as usize]; n];
        let mut stride = 1usize;
        for d in 0..dims {
            for x in 0..n {
                let coord = (x / stride) % radix;
                if coord + 1 < radix {
                    let y = x + stride;
                    let ch = network.add_channel(
                        switch_node[x],
                        switch_node[y],
                        ChannelClass::Dimension { dim: d },
                    );
                    plus_channel[x][d as usize] = Some(ch);
                    let back = network.add_channel(
                        switch_node[y],
                        switch_node[x],
                        ChannelClass::Dimension { dim: d },
                    );
                    minus_channel[y][d as usize] = Some(back);
                }
            }
            stride *= radix;
        }
        debug_assert_eq!(network.validate(), Ok(()));
        Ok(Self {
            radix,
            dims,
            network,
            plus_channel,
            minus_channel,
            switch_node,
        })
    }

    /// The radix `k`.
    #[must_use]
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// The dimensionality `n`.
    #[must_use]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Number of processors `kⁿ`.
    #[must_use]
    pub fn num_processors(&self) -> usize {
        self.radix.pow(self.dims)
    }

    /// The underlying channel network.
    #[must_use]
    pub fn network(&self) -> &ChannelNetwork {
        &self.network
    }

    /// Switch node of linear address `x`.
    #[must_use]
    pub fn switch(&self, x: usize) -> NodeId {
        self.switch_node[x]
    }

    /// Address of a switch node.
    ///
    /// # Panics
    ///
    /// Panics when `node` is not a switch.
    #[must_use]
    // Documented caller contract on the per-flit hot path.
    #[allow(clippy::panic)]
    pub fn switch_address(&self, node: NodeId) -> usize {
        match self.network.node(node).kind {
            NodeKind::Switch { address, .. } => address,
            NodeKind::Processor { .. } => panic!("{node} is a processor"),
        }
    }

    /// Coordinate of address `x` in dimension `d`.
    #[must_use]
    pub fn coord(&self, x: usize, d: u32) -> usize {
        (x / self.radix.pow(d)) % self.radix
    }

    /// Dimension-order routing: next channel from switch `node` towards
    /// processor `dest`, or `None` to eject here.
    #[must_use]
    // Structural invariant from construction: dimension-order routing only
    // crosses interior links, which always exist. Hot path — kept as expects.
    #[allow(clippy::expect_used)]
    pub fn route(&self, node: NodeId, dest: usize) -> Option<ChannelId> {
        let here = self.switch_address(node);
        for d in 0..self.dims {
            let hc = self.coord(here, d);
            let dc = self.coord(dest, d);
            if hc < dc {
                return Some(self.plus_channel[here][d as usize].expect("interior +link exists"));
            }
            if hc > dc {
                return Some(self.minus_channel[here][d as usize].expect("interior -link exists"));
            }
        }
        None
    }

    /// Manhattan hop distance between processors (switch-to-switch).
    #[must_use]
    pub fn hop_distance(&self, src: usize, dst: usize) -> usize {
        (0..self.dims)
            .map(|d| {
                let a = self.coord(src, d);
                let b = self.coord(dst, d);
                a.abs_diff(b)
            })
            .sum()
    }

    /// Average channel distance between distinct processors, including
    /// injection and ejection: `n·(k²−1)·k^(n−1)·... /(kⁿ−1)`-style sum done
    /// exactly from the per-dimension mean `k(k²−1)/3k... `; computed from
    /// the exact single-dimension pair sum `Σ|i−j| = k(k²−1)/3`.
    #[must_use]
    pub fn average_distance(&self) -> f64 {
        let k = self.radix as f64;
        let n_nodes = self.num_processors() as f64;
        // Per-dimension sum over ordered pairs: k(k²−1)/3; pairs across all
        // nodes: multiply by (kⁿ/k)² per-dimension slices... simpler exact
        // route: E[|i−j|] over ordered coordinate pairs (i≠j allowed) is
        // (k²−1)/(3k); total expected hops over all ordered node pairs
        // (including src==dst) is n·(k²−1)/(3k); correct for excluding the
        // src==dst pairs.
        let e_hops_incl = f64::from(self.dims) * (k * k - 1.0) / (3.0 * k);
        let e_hops = e_hops_incl * n_nodes / (n_nodes - 1.0);
        e_hops + 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    #[test]
    fn shape_and_validation() {
        let m = Mesh::new(3, 2).unwrap();
        assert_eq!(m.num_processors(), 9);
        // Channels: 9·2 PE links + 2 dims · 2 dirs · (3−1)·3 links = 18 + 24.
        assert_eq!(m.network().num_channels(), 18 + 24);
        m.network().validate().unwrap();
    }

    #[test]
    fn dor_routes_dimension_zero_first() {
        let m = Mesh::new(4, 2).unwrap();
        // From (0,0)=0 to (3,2)=3+2·4=11: first hops go +x.
        let ch = m.route(m.switch(0), 11).unwrap();
        assert_eq!(m.switch_address(m.network().channel(ch).dst), 1);
        // From (3,0)=3 to (3,2)=11: route +y.
        let ch = m.route(m.switch(3), 11).unwrap();
        assert_eq!(m.switch_address(m.network().channel(ch).dst), 7);
        assert!(m.route(m.switch(11), 11).is_none());
    }

    #[test]
    fn dor_path_length_is_manhattan() {
        let m = Mesh::new(4, 2).unwrap();
        for (s, d) in [(0usize, 15usize), (5, 10), (12, 3), (7, 7)] {
            let mut cur = m.switch(s);
            let mut hops = 0;
            while let Some(ch) = m.route(cur, d) {
                cur = m.network().channel(ch).dst;
                hops += 1;
                assert!(hops <= 6);
            }
            assert_eq!(hops, m.hop_distance(s, d));
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected_not_panicked() {
        assert_eq!(Mesh::new(1, 2).unwrap_err(), MeshError::RadixTooSmall);
        assert_eq!(Mesh::new(4, 0).unwrap_err(), MeshError::BadDimensions);
        assert_eq!(Mesh::new(4, 9).unwrap_err(), MeshError::BadDimensions);
        assert_eq!(Mesh::new(1 << 13, 2).unwrap_err(), MeshError::TooLarge);
        assert!(Mesh::new(2, 1).is_ok());
    }

    #[test]
    fn average_distance_matches_bfs() {
        for (k, n) in [(3usize, 2u32), (4, 2), (2, 3)] {
            let m = Mesh::new(k, n).unwrap();
            let avg = distance::average_processor_distance(m.network());
            assert!(
                (avg - m.average_distance()).abs() < 1e-12,
                "k={k}, n={n}: BFS {avg} vs closed {}",
                m.average_distance()
            );
        }
    }
}
