//! Structured worm-lifecycle events and the bounded event sink.
//!
//! Events are emitted by the simulation engine at *state transitions*
//! only — never during fast-forwarded spans, which by construction
//! contain no transitions — so the event stream of a run is identical
//! across both `EngineKind`s.

/// Why a worm failed to make progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The worm's flit span could not reserve every physical link it
    /// needed this cycle (another lane's flit took a shared link slot).
    LinkBusy,
    /// The worm is at the head of its arbitration station's FCFS queue
    /// but every candidate channel has all lanes occupied.
    NoFreeLane,
    /// The worm entered a station queue behind other waiting worms and
    /// must wait its FCFS turn.
    FcfsQueued,
    /// Every surviving route to the worm's destination runs through a
    /// failed link or switch: the message is terminally unroutable. The
    /// engine records one such stall per dropped (or defensively killed)
    /// message, so this counter equals the run's unroutable count.
    DeadLink,
}

impl StallCause {
    /// Stable snake_case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::LinkBusy => "link_busy",
            StallCause::NoFreeLane => "no_free_lane",
            StallCause::FcfsQueued => "fcfs_queued",
            StallCause::DeadLink => "dead_link",
        }
    }

    /// All causes, in the order used by aggregate counters.
    pub const ALL: [StallCause; 4] = [
        StallCause::LinkBusy,
        StallCause::NoFreeLane,
        StallCause::FcfsQueued,
        StallCause::DeadLink,
    ];

    /// Position of this cause in [`StallCause::ALL`].
    pub fn index(self) -> usize {
        match self {
            StallCause::LinkBusy => 0,
            StallCause::NoFreeLane => 1,
            StallCause::FcfsQueued => 2,
            StallCause::DeadLink => 3,
        }
    }
}

/// One worm-lifecycle event. `t` is the simulation cycle; `worm` is a
/// run-unique worm sequence number (slab slots are reused by the engine,
/// so the raw slab index would not identify a worm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WormEvent {
    /// A message became a worm at its source PE.
    Inject {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
        /// Source PE index.
        src: u32,
        /// Destination PE index.
        dest: u32,
    },
    /// The router chose the worm's next arbitration station.
    RouteChosen {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
        /// Arbitration-station index the worm queued at.
        station: u32,
    },
    /// The station granted the worm a `(channel, lane)` pair.
    LaneGrant {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
        /// Physical channel index.
        channel: u32,
        /// Lane index within the channel.
        lane: u16,
    },
    /// The worm failed to make progress this cycle.
    Stall {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
        /// Why progress was denied.
        cause: StallCause,
    },
    /// The head flit reached the destination PE; the body is draining.
    Drain {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
    },
    /// The tail flit was consumed; the worm left the network.
    Deliver {
        /// Simulation cycle.
        t: u64,
        /// Run-unique worm id.
        worm: u64,
        /// End-to-end latency in cycles (generation to tail consumption).
        latency: u64,
    },
}

impl WormEvent {
    /// Simulation cycle the event occurred at.
    pub fn time(&self) -> u64 {
        match *self {
            WormEvent::Inject { t, .. }
            | WormEvent::RouteChosen { t, .. }
            | WormEvent::LaneGrant { t, .. }
            | WormEvent::Stall { t, .. }
            | WormEvent::Drain { t, .. }
            | WormEvent::Deliver { t, .. } => t,
        }
    }

    /// Run-unique id of the worm the event belongs to.
    pub fn worm(&self) -> u64 {
        match *self {
            WormEvent::Inject { worm, .. }
            | WormEvent::RouteChosen { worm, .. }
            | WormEvent::LaneGrant { worm, .. }
            | WormEvent::Stall { worm, .. }
            | WormEvent::Drain { worm, .. }
            | WormEvent::Deliver { worm, .. } => worm,
        }
    }
}

/// Bounded in-memory event buffer. When full it drops new events (and
/// counts them) rather than reallocate without limit — a trace of the
/// first `capacity` events plus an honest drop count beats an unbounded
/// buffer that can eat the heap on a saturated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSink {
    events: Vec<WormEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventSink {
    /// A sink holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventSink {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event, or count it as dropped when at capacity.
    #[inline]
    pub fn push(&mut self, ev: WormEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far, in emission order.
    pub fn events(&self) -> &[WormEvent] {
        &self.events
    }

    /// Number of events rejected because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the sink, returning `(events, dropped)`.
    pub fn into_parts(self) -> (Vec<WormEvent>, u64) {
        (self.events, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_bounds_and_counts_drops() {
        let mut s = EventSink::with_capacity(2);
        for t in 0..5 {
            s.push(WormEvent::Drain { t, worm: 0 });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.events()[1].time(), 1);
    }

    #[test]
    fn event_accessors_cover_all_variants() {
        let evs = [
            WormEvent::Inject {
                t: 1,
                worm: 7,
                src: 0,
                dest: 3,
            },
            WormEvent::RouteChosen {
                t: 2,
                worm: 7,
                station: 4,
            },
            WormEvent::LaneGrant {
                t: 3,
                worm: 7,
                channel: 9,
                lane: 1,
            },
            WormEvent::Stall {
                t: 4,
                worm: 7,
                cause: StallCause::LinkBusy,
            },
            WormEvent::Drain { t: 5, worm: 7 },
            WormEvent::Deliver {
                t: 6,
                worm: 7,
                latency: 6,
            },
        ];
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.time(), i as u64 + 1);
            assert_eq!(ev.worm(), 7);
        }
    }

    #[test]
    fn stall_cause_index_matches_all() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
