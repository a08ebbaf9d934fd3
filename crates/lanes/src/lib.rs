//! Virtual-channel (multi-lane) configuration and bookkeeping for the
//! simulator.
//!
//! The Greenberg–Guan model (ICPP 1997) assumes single-lane wormhole
//! channels: one blocked worm stalls the whole physical link. Virtual
//! channels are the canonical remedy — each physical channel carries
//! `L ≥ 1` *lanes*, each buffering one worm, with the physical link
//! flit-multiplexed among the occupied lanes. This crate owns the parts of
//! that subsystem that are independent of the cycle engine (the analytical
//! model's lane math is `wormsim_queueing::lanes`):
//!
//! * [`LaneConfig`] — the validated lane count (the Result-based
//!   constructor is the only way to obtain one, so an engine holding a
//!   `LaneConfig` never needs to re-check it);
//! * [`LaneTable`] — per-channel free-lane masks: a grant takes the
//!   lowest-indexed free lane ([`LaneAllocatorKind::FirstFree`]);
//! * [`LaneAudit`] / [`LaneStats`] — per-lane-index occupancy statistics
//!   aggregated over a measurement window.
//!
//! Lane choice is **deterministic** (no RNG), so an `L = 1` run is
//! bit-for-bit the single-lane engine. Which free lane a worm takes never
//! changes what is simulated: a link is priced by how many of its lanes
//! are busy, so a different choice would only relabel the lanes in
//! [`LaneStats`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

use std::fmt;

/// Largest supported lane count per physical channel. Lane occupancy is
/// tracked in a 64-bit mask per channel; real routers rarely exceed a
/// dozen virtual channels per link.
pub const MAX_LANES: u32 = 64;

/// Errors from lane-configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// The lane count is outside `1..=MAX_LANES`.
    InvalidLaneCount {
        /// The rejected count.
        lanes: u32,
    },
}

impl fmt::Display for LaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneError::InvalidLaneCount { lanes } => {
                write!(f, "lane count {lanes} must be in 1..={MAX_LANES}")
            }
        }
    }
}

impl std::error::Error for LaneError {}

/// Lane-allocation policy: which free lane of a physical channel a newly
/// granted worm occupies. There is one, first-free; [`LaneConfig::new`]
/// still takes it so that call sites name the policy they get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneAllocatorKind {
    /// Lowest-indexed free lane.
    #[default]
    FirstFree,
}

/// A validated virtual-channel configuration: lanes per physical channel.
///
/// The field is private: the only constructors are [`LaneConfig::new`]
/// (which validates) and [`LaneConfig::single`] (the paper's single-lane
/// channels), so holding a `LaneConfig` is proof of validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneConfig {
    lanes: u32,
}

impl Default for LaneConfig {
    fn default() -> Self {
        Self::single()
    }
}

impl LaneConfig {
    /// Builds a validated configuration of `lanes` first-free lanes.
    ///
    /// # Errors
    ///
    /// [`LaneError::InvalidLaneCount`] when `lanes` is outside
    /// `1..=`[`MAX_LANES`].
    pub fn new(lanes: u32, _allocator: LaneAllocatorKind) -> Result<Self, LaneError> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(LaneError::InvalidLaneCount { lanes });
        }
        Ok(Self { lanes })
    }

    /// The paper's single-lane channels (always valid).
    #[must_use]
    pub fn single() -> Self {
        Self { lanes: 1 }
    }

    /// Lanes per physical channel (`≥ 1`).
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }
}

/// Per-channel lane occupancy: which lanes of each physical channel are
/// free. Who holds a busy lane is the embedding engine's business — the
/// table only answers "is a lane free", "take one" and "give one back".
#[derive(Debug, Clone)]
pub struct LaneTable {
    lanes: u32,
    /// Bitmask of free lanes per channel (bit `l` set ⇔ lane `l` free).
    free: Vec<u64>,
}

impl LaneTable {
    /// A table for `num_channels` physical channels, all lanes free.
    #[must_use]
    pub fn new(num_channels: usize, config: &LaneConfig) -> Self {
        let lanes = config.lanes();
        let full = if lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        Self {
            lanes,
            free: vec![full; num_channels],
        }
    }

    /// Lanes per channel.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Whether channel `ch` has at least one free lane.
    #[must_use]
    pub fn has_free(&self, ch: usize) -> bool {
        self.free[ch] != 0
    }

    /// Number of free lanes on channel `ch`.
    #[must_use]
    pub fn free_lanes(&self, ch: usize) -> u32 {
        self.free[ch].count_ones()
    }

    /// Number of occupied lanes on channel `ch`.
    #[must_use]
    pub fn occupied(&self, ch: usize) -> u32 {
        self.lanes - self.free_lanes(ch)
    }

    /// Whether lane `lane` of channel `ch` is free.
    #[must_use]
    pub fn is_free(&self, ch: usize, lane: u16) -> bool {
        self.free[ch] & (1u64 << lane) != 0
    }

    /// Takes the lowest-indexed free lane of channel `ch`, or `None` when
    /// every lane is busy.
    pub fn allocate(&mut self, ch: usize) -> Option<u16> {
        let mask = self.free[ch];
        if mask == 0 {
            return None;
        }
        let lane = mask.trailing_zeros() as u16;
        self.free[ch] &= !(1u64 << lane);
        Some(lane)
    }

    /// Releases lane `lane` of channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the lane was already free (a
    /// double-release is an engine bug, not a user error).
    pub fn release(&mut self, ch: usize, lane: u16) {
        debug_assert!(!self.is_free(ch, lane), "release of a free lane");
        self.free[ch] |= 1u64 << lane;
    }
}

/// Aggregated occupancy statistics for one lane index, over every channel
/// of the network and the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// The lane index (`0..L`).
    pub lane: u32,
    /// Worms granted this lane index during the window.
    pub grants: u64,
    /// Mean hold (grant → release) time in cycles.
    pub mean_hold: f64,
    /// Fraction of channel-cycles this lane index was held,
    /// `busy_cycles / (cycles · channels)`.
    pub utilization: f64,
}

/// Builder for [`LaneStats`]: the embedding engine reports grants and
/// releases per lane index; `finish` normalizes over the window.
#[derive(Debug, Clone)]
pub struct LaneAudit {
    grants: Vec<u64>,
    hold_sum: Vec<u64>,
    releases: Vec<u64>,
}

impl LaneAudit {
    /// An audit for `lanes` lane indices.
    #[must_use]
    pub fn new(lanes: u32) -> Self {
        let n = lanes as usize;
        Self {
            grants: vec![0; n],
            hold_sum: vec![0; n],
            releases: vec![0; n],
        }
    }

    /// Records a grant on lane index `lane`.
    pub fn record_grant(&mut self, lane: u16) {
        self.grants[lane as usize] += 1;
    }

    /// Records a release after holding the lane for `hold` cycles.
    pub fn record_release(&mut self, lane: u16, hold: u64) {
        self.hold_sum[lane as usize] += hold;
        self.releases[lane as usize] += 1;
    }

    /// Finalizes into per-lane statistics over a window of `cycles` on a
    /// network of `channels` physical channels.
    #[must_use]
    pub fn finish(&self, cycles: u64, channels: usize) -> Vec<LaneStats> {
        let denom = cycles as f64 * channels as f64;
        (0..self.grants.len())
            .map(|l| LaneStats {
                lane: l as u32,
                grants: self.grants[l],
                mean_hold: if self.releases[l] > 0 {
                    self.hold_sum[l] as f64 / self.releases[l] as f64
                } else {
                    0.0
                },
                utilization: if denom > 0.0 {
                    self.hold_sum[l] as f64 / denom
                } else {
                    0.0
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_is_result_based() {
        assert!(LaneConfig::new(1, LaneAllocatorKind::FirstFree).is_ok());
        assert_eq!(
            LaneConfig::new(0, LaneAllocatorKind::FirstFree),
            Err(LaneError::InvalidLaneCount { lanes: 0 })
        );
        assert_eq!(
            LaneConfig::new(MAX_LANES + 1, LaneAllocatorKind::FirstFree),
            Err(LaneError::InvalidLaneCount {
                lanes: MAX_LANES + 1
            })
        );
        assert_eq!(LaneConfig::default(), LaneConfig::single());
        assert_eq!(LaneConfig::single().lanes(), 1);
        let cfg = LaneConfig::new(3, LaneAllocatorKind::FirstFree).unwrap();
        assert_eq!(cfg.lanes(), 3);
        // Errors render.
        assert!(LaneError::InvalidLaneCount { lanes: 0 }
            .to_string()
            .contains("lane count"));
    }

    #[test]
    fn first_free_takes_lowest_index() {
        let cfg = LaneConfig::new(3, LaneAllocatorKind::FirstFree).unwrap();
        let mut t = LaneTable::new(2, &cfg);
        assert_eq!(t.allocate(0), Some(0));
        assert_eq!(t.allocate(0), Some(1));
        assert_eq!(t.allocate(0), Some(2));
        assert_eq!(t.allocate(0), None);
        assert!(!t.has_free(0));
        assert!(t.has_free(1));
        t.release(0, 1);
        assert_eq!(t.allocate(0), Some(1));
    }

    #[test]
    fn occupancy_counters_are_consistent() {
        let cfg = LaneConfig::new(4, LaneAllocatorKind::FirstFree).unwrap();
        let mut t = LaneTable::new(1, &cfg);
        assert_eq!(t.free_lanes(0), 4);
        assert_eq!(t.occupied(0), 0);
        let a = t.allocate(0).unwrap();
        let b = t.allocate(0).unwrap();
        assert_ne!(a, b, "no double grant");
        assert_eq!(t.occupied(0), 2);
        assert!(!t.is_free(0, a));
        t.release(0, a);
        assert!(t.is_free(0, a));
        assert_eq!(t.occupied(0), 1);
    }

    #[test]
    fn max_lane_mask_does_not_overflow() {
        let cfg = LaneConfig::new(MAX_LANES, LaneAllocatorKind::FirstFree).unwrap();
        let mut t = LaneTable::new(1, &cfg);
        for expect in 0..MAX_LANES as u16 {
            assert_eq!(t.allocate(0), Some(expect));
        }
        assert_eq!(t.allocate(0), None);
    }

    #[test]
    fn audit_aggregates_per_lane() {
        let mut audit = LaneAudit::new(2);
        audit.record_grant(0);
        audit.record_grant(0);
        audit.record_grant(1);
        audit.record_release(0, 10);
        audit.record_release(0, 20);
        audit.record_release(1, 30);
        let stats = audit.finish(100, 5);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].grants, 2);
        assert!((stats[0].mean_hold - 15.0).abs() < 1e-12);
        assert!((stats[0].utilization - 30.0 / 500.0).abs() < 1e-12);
        assert_eq!(stats[1].grants, 1);
        assert!((stats[1].mean_hold - 30.0).abs() < 1e-12);
        // Empty window degrades to zeros.
        let empty = LaneAudit::new(1).finish(0, 5);
        assert_eq!(empty[0].utilization, 0.0);
        assert_eq!(empty[0].mean_hold, 0.0);
    }
}
