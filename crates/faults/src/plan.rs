//! Seeded, deterministic fault plans: which channels and switches are dead.
//!
//! A [`FaultSpec`] is the *intent* — validated knockout fractions plus a
//! seed — and a [`FaultPlan`] is the *realization* over one concrete
//! [`ChannelNetwork`]: a bitmap of dead channels and dead switches. The
//! same spec applied to the same network shape always yields the same
//! plan (the selection uses an embedded splitmix64 stream, independent of
//! the simulator's RNG), so fault experiments replicate exactly across
//! runs, engines and machines.
//!
//! Random link knockouts draw only from the switch-to-switch fabric
//! (up/down/dimension channels); injection and ejection channels model
//! the PE's attachment and are protected — to take a PE off the network,
//! kill its switch. Explicit single-element knockouts
//! ([`FaultPlan::kill_channel`], [`FaultPlan::kill_switch`]) are provided
//! for targeted experiments; killing a switch kills every channel
//! incident to it, PE attachments included.

use crate::error::FaultError;
use wormsim_topology::graph::{ChannelClass, ChannelNetwork, NodeKind};
use wormsim_topology::ids::{ChannelId, NodeId};

/// splitmix64: the plan's private, seed-derived selection stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Validated fault-injection intent: knockout fractions plus a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    link_fraction: f64,
    switch_fraction: f64,
    seed: u64,
}

impl FaultSpec {
    /// Validates a spec: both fractions must be finite and in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidFraction`] on an out-of-range or non-finite
    /// fraction.
    pub fn new(link_fraction: f64, switch_fraction: f64, seed: u64) -> Result<Self, FaultError> {
        if !(link_fraction.is_finite() && (0.0..=1.0).contains(&link_fraction)) {
            return Err(FaultError::InvalidFraction {
                which: "link",
                value: link_fraction,
            });
        }
        if !(switch_fraction.is_finite() && (0.0..=1.0).contains(&switch_fraction)) {
            return Err(FaultError::InvalidFraction {
                which: "switch",
                value: switch_fraction,
            });
        }
        Ok(Self {
            link_fraction,
            switch_fraction,
            seed,
        })
    }

    /// Link-only knockouts at the given fraction.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn links(fraction: f64, seed: u64) -> Result<Self, FaultError> {
        Self::new(fraction, 0.0, seed)
    }

    /// The fraction of switch-to-switch links to knock out.
    #[must_use]
    pub fn link_fraction(&self) -> f64 {
        self.link_fraction
    }

    /// The fraction of switches to knock out.
    #[must_use]
    pub fn switch_fraction(&self) -> f64 {
        self.switch_fraction
    }

    /// The selection seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Which channels and switches of one network are dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-channel death bitmap, indexed by channel id.
    dead_channels: Vec<bool>,
    /// Per-node death bitmap (only switch nodes can be true).
    dead_switches: Vec<bool>,
    dead_channel_count: usize,
    dead_switch_count: usize,
}

impl FaultPlan {
    /// The empty plan: every channel and switch alive. A simulation or
    /// model run under `FaultPlan::none` is bit-for-bit the un-faulted
    /// run.
    #[must_use]
    pub fn none(net: &ChannelNetwork) -> Self {
        Self {
            dead_channels: vec![false; net.num_channels()],
            dead_switches: vec![false; net.num_nodes()],
            dead_channel_count: 0,
            dead_switch_count: 0,
        }
    }

    /// Realizes `spec` over `net`: first knocks out
    /// `⌊switch_fraction · num_switches⌋` switches, then
    /// `⌊link_fraction · eligible⌋` of the switch-to-switch channels still
    /// alive, both chosen by a partial Fisher–Yates shuffle over the
    /// spec's splitmix64 stream. Deterministic: the same spec and network
    /// shape always produce the same plan.
    #[must_use]
    // Both expects guard selections filtered above to exactly the node and
    // channel kinds the kill calls accept — construction-local invariants.
    #[allow(clippy::expect_used)]
    pub fn build(net: &ChannelNetwork, spec: &FaultSpec) -> Self {
        let mut plan = Self::none(net);
        let mut rng = spec.seed();

        let mut switches: Vec<NodeId> = net
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Switch { .. }))
            .map(|(i, _)| NodeId(i))
            .collect();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let kill_switches = (spec.switch_fraction() * switches.len() as f64).floor() as usize;
        for i in 0..kill_switches {
            let j = i + (splitmix64(&mut rng) as usize) % (switches.len() - i);
            switches.swap(i, j);
            plan.kill_switch(net, switches[i])
                .expect("selection only lists switches");
        }

        let mut links: Vec<ChannelId> = net
            .channels()
            .iter()
            .enumerate()
            .filter(|(i, ch)| {
                !plan.dead_channels[*i]
                    && matches!(
                        ch.class,
                        ChannelClass::Up { .. }
                            | ChannelClass::Down { .. }
                            | ChannelClass::Dimension { .. }
                    )
            })
            .map(|(i, _)| ChannelId(i))
            .collect();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let kill_links = (spec.link_fraction() * links.len() as f64).floor() as usize;
        for i in 0..kill_links {
            let j = i + (splitmix64(&mut rng) as usize) % (links.len() - i);
            links.swap(i, j);
            plan.kill_channel(net, links[i])
                .expect("selection only lists alive fabric channels");
        }
        plan
    }

    /// Knocks out one switch-to-switch channel.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownChannel`] for an out-of-range id;
    /// [`FaultError::ProtectedChannel`] for injection/ejection channels
    /// (kill the switch instead).
    pub fn kill_channel(&mut self, net: &ChannelNetwork, ch: ChannelId) -> Result<(), FaultError> {
        if ch.index() >= net.num_channels() {
            return Err(FaultError::UnknownChannel(ch.index()));
        }
        if matches!(
            net.channel(ch).class,
            ChannelClass::Injection | ChannelClass::Ejection
        ) {
            return Err(FaultError::ProtectedChannel(ch.index()));
        }
        self.mark_channel_dead(ch);
        Ok(())
    }

    /// Knocks out one switch and every channel incident to it (PE
    /// attachments included: its leaves lose network access).
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownNode`] for an out-of-range id;
    /// [`FaultError::NotASwitch`] when the node is a processing element.
    pub fn kill_switch(&mut self, net: &ChannelNetwork, node: NodeId) -> Result<(), FaultError> {
        if node.index() >= net.num_nodes() {
            return Err(FaultError::UnknownNode(node.index()));
        }
        if !matches!(net.node(node).kind, NodeKind::Switch { .. }) {
            return Err(FaultError::NotASwitch(node.index()));
        }
        if !self.dead_switches[node.index()] {
            self.dead_switches[node.index()] = true;
            self.dead_switch_count += 1;
        }
        for &ch in net
            .node(node)
            .out_channels
            .iter()
            .chain(&net.node(node).in_channels)
        {
            self.mark_channel_dead(ch);
        }
        Ok(())
    }

    fn mark_channel_dead(&mut self, ch: ChannelId) {
        if !self.dead_channels[ch.index()] {
            self.dead_channels[ch.index()] = true;
            self.dead_channel_count += 1;
        }
    }

    /// Whether channel `ch` is dead.
    #[must_use]
    pub fn channel_dead(&self, ch: ChannelId) -> bool {
        self.dead_channels[ch.index()]
    }

    /// Number of dead channels.
    #[must_use]
    pub fn dead_channel_count(&self) -> usize {
        self.dead_channel_count
    }

    /// Number of dead switches.
    #[must_use]
    pub fn dead_switch_count(&self) -> usize {
        self.dead_switch_count
    }

    /// Whether nothing is dead (the [`Self::none`] plan).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dead_channel_count == 0 && self.dead_switch_count == 0
    }

    /// Number of channels the plan covers.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.dead_channels.len()
    }

    /// Checks the plan was built for a network of `net`'s shape.
    ///
    /// # Errors
    ///
    /// [`FaultError::ShapeMismatch`] on a channel-count mismatch.
    pub fn check_shape(&self, net: &ChannelNetwork) -> Result<(), FaultError> {
        if self.dead_channels.len() != net.num_channels()
            || self.dead_switches.len() != net.num_nodes()
        {
            return Err(FaultError::ShapeMismatch {
                plan_channels: self.dead_channels.len(),
                net_channels: net.num_channels(),
            });
        }
        Ok(())
    }

    /// Per-station surviving-server counts: for each arbitration station,
    /// how many member channels are still alive. This is what the
    /// degraded analytical model feeds to its M/G/m stations.
    #[must_use]
    pub fn alive_servers(&self, net: &ChannelNetwork) -> Vec<u32> {
        net.stations()
            .iter()
            .map(|st| {
                st.channels
                    .iter()
                    .filter(|&&ch| !self.channel_dead(ch))
                    .count() as u32
            })
            .collect()
    }

    /// A short human-readable summary for labels and reports.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_empty() {
            "no faults".to_string()
        } else {
            format!(
                "{} dead links, {} dead switches",
                self.dead_channel_count, self.dead_switch_count
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::bft::{BftParams, ButterflyFatTree};

    fn bft(n: usize) -> ButterflyFatTree {
        ButterflyFatTree::new(BftParams::paper(n).unwrap())
    }

    #[test]
    fn spec_validation_rejects_bad_fractions() {
        assert!(FaultSpec::new(0.0, 0.0, 1).is_ok());
        assert!(FaultSpec::new(1.0, 1.0, 1).is_ok());
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FaultSpec::new(bad, 0.0, 1),
                Err(FaultError::InvalidFraction { which: "link", .. })
            ));
            assert!(matches!(
                FaultSpec::new(0.0, bad, 1),
                Err(FaultError::InvalidFraction {
                    which: "switch",
                    ..
                })
            ));
        }
        assert_eq!(FaultSpec::links(0.05, 9).unwrap().switch_fraction(), 0.0);
    }

    #[test]
    fn same_seed_same_plan_different_seed_differs() {
        let tree = bft(64);
        let spec = FaultSpec::links(0.10, 42).unwrap();
        let a = FaultPlan::build(tree.network(), &spec);
        let b = FaultPlan::build(tree.network(), &spec);
        assert_eq!(a, b);
        let c = FaultPlan::build(tree.network(), &FaultSpec::links(0.10, 43).unwrap());
        assert_ne!(a, c, "different seeds should pick different links");
        assert_eq!(a.dead_channel_count(), c.dead_channel_count());
    }

    #[test]
    fn link_fraction_counts_only_fabric_channels() {
        let tree = bft(64);
        // 96 switch-to-switch channels at N=64 (2·(16·2 + 8·2)).
        let spec = FaultSpec::links(0.25, 7).unwrap();
        let plan = FaultPlan::build(tree.network(), &spec);
        assert_eq!(plan.dead_channel_count(), 24);
        assert_eq!(plan.dead_switch_count(), 0);
        for (i, ch) in tree.network().channels().iter().enumerate() {
            if plan.channel_dead(ChannelId(i)) {
                assert!(matches!(
                    ch.class,
                    ChannelClass::Up { .. } | ChannelClass::Down { .. }
                ));
            }
        }
    }

    #[test]
    fn zero_fraction_is_the_none_plan() {
        let tree = bft(16);
        let spec = FaultSpec::new(0.0, 0.0, 5).unwrap();
        assert_eq!(
            FaultPlan::build(tree.network(), &spec),
            FaultPlan::none(tree.network())
        );
        assert!(FaultPlan::none(tree.network()).is_empty());
        assert_eq!(FaultPlan::none(tree.network()).summary(), "no faults");
    }

    #[test]
    fn kill_switch_kills_all_incident_channels() {
        let tree = bft(16);
        let net = tree.network();
        let mut plan = FaultPlan::none(net);
        let sw = tree.switch(1, 0);
        plan.kill_switch(net, sw).unwrap();
        assert_eq!(plan.dead_switch_count(), 1);
        let expected = net.node(sw).out_channels.len() + net.node(sw).in_channels.len();
        assert_eq!(plan.dead_channel_count(), expected);
        // Killing it again is idempotent.
        plan.kill_switch(net, sw).unwrap();
        assert_eq!(plan.dead_channel_count(), expected);
        assert_eq!(plan.dead_switch_count(), 1);
        assert!(plan.summary().contains("1 dead switches"));
    }

    #[test]
    fn explicit_knockouts_validate_targets() {
        let tree = bft(16);
        let net = tree.network();
        let mut plan = FaultPlan::none(net);
        assert!(matches!(
            plan.kill_channel(net, ChannelId(net.num_channels())),
            Err(FaultError::UnknownChannel(_))
        ));
        let inject = net.processors()[0].inject;
        assert!(matches!(
            plan.kill_channel(net, inject),
            Err(FaultError::ProtectedChannel(_))
        ));
        assert!(matches!(
            plan.kill_switch(net, NodeId(0)),
            Err(FaultError::NotASwitch(0))
        ));
        assert!(matches!(
            plan.kill_switch(net, NodeId(net.num_nodes())),
            Err(FaultError::UnknownNode(_))
        ));
        assert!(plan.is_empty(), "failed knockouts must not mutate the plan");
        let up = tree.up_channels_of(tree.switch(1, 0))[0];
        plan.kill_channel(net, up).unwrap();
        assert!(plan.channel_dead(up));
        assert_eq!(plan.dead_channel_count(), 1);
    }

    #[test]
    fn alive_servers_reflect_dead_members() {
        let tree = bft(16);
        let net = tree.network();
        let mut plan = FaultPlan::none(net);
        let full = plan.alive_servers(net);
        for (st, &m) in full.iter().enumerate() {
            assert_eq!(m, net.stations()[st].servers());
        }
        let node = tree.switch(1, 0);
        let st = tree.up_station_of(node).unwrap();
        plan.kill_channel(net, tree.up_channels_of(node)[1])
            .unwrap();
        let degraded = plan.alive_servers(net);
        assert_eq!(degraded[st.index()], 1);
    }

    #[test]
    fn shape_check_catches_foreign_networks() {
        let a = bft(16);
        let b = bft(64);
        let plan = FaultPlan::none(a.network());
        assert!(plan.check_shape(a.network()).is_ok());
        assert!(matches!(
            plan.check_shape(b.network()),
            Err(FaultError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn switch_fraction_selects_switches() {
        let tree = bft(64);
        // 28 switches; 10% → 2 dead.
        let spec = FaultSpec::new(0.0, 0.10, 3).unwrap();
        let plan = FaultPlan::build(tree.network(), &spec);
        assert_eq!(plan.dead_switch_count(), 2);
        assert!(plan.dead_channel_count() > 0);
    }
}
