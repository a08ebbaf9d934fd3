//! The simulation-side observer: per-channel / per-lane accounting and
//! the live trace driven by the engine's hook points.
//!
//! # Accounting scheme
//!
//! Per physical channel the trace keeps two independently-derived
//! quantities:
//!
//! * **busy** — incremented once per cycle in which a flit actually
//!   crosses the channel (at most one per cycle: the engine's link-slot
//!   arbitration guarantees it).
//! * **held** — the size of the *union of occupancy intervals*: the
//!   number of cycles in which at least one lane of the channel was
//!   allocated to some worm. Maintained transition-based (an open-interval
//!   start on the 0→1 lane-occupancy edge, closed on the →0 edge), so it
//!   is exact even across fast-forwarded idle spans and batched silent
//!   drain spans, which contain no transitions. (A silent drain span's
//!   flits reach `busy` in one [`SimTrace::on_flits`] call per channel.)
//!
//! From these, `stalled = held − busy` (held but not transmitting) and
//! `idle = cycles_run − held`, giving the conservation law checked by
//! [`SimSnapshot::check_conservation`]:
//! `busy + stalled + idle = cycles_run` per channel — a meaningful
//! invariant precisely because busy and held come from different
//! mechanisms (per-flit walk vs. occupancy edges).

use crate::events::{EventSink, StallCause, WormEvent};
use crate::metrics::{Histogram, Registry};
use crate::timeseries::{TimeSeries, TimeSeriesConfig, TimeSeriesResult};

/// Most events an event log holds; later ones are counted as dropped
/// ([`SimSnapshot::events_dropped`]).
const EVENT_CAPACITY: usize = 1 << 20;

/// What the observer records. The default is everything ([`ObsConfig::full`]).
/// Counters and per-channel / per-lane accounting are always on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-event worm-lifecycle entries into the sink (up to 1 Mi
    /// events; later ones are counted as dropped).
    pub events: bool,
    /// Windowed time-series sampling (`None` disables it).
    pub time_series: Option<TimeSeriesConfig>,
}

impl ObsConfig {
    /// Counters and per-channel/per-lane accounting only, no event log.
    pub fn counters_only() -> Self {
        ObsConfig {
            events: false,
            time_series: None,
        }
    }

    /// Counters plus the full event log.
    pub fn full() -> Self {
        ObsConfig {
            events: true,
            time_series: None,
        }
    }

    /// Same config with windowed time-series sampling at
    /// `window_cycles`-cycle windows (default retention).
    pub fn with_time_series(mut self, window_cycles: u64) -> Self {
        self.time_series = Some(TimeSeriesConfig::new(window_cycles));
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::full()
    }
}

/// Finished per-channel usage figures. All in cycles except `grants`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelUsage {
    /// Cycles in which a flit crossed the channel.
    pub busy_cycles: u64,
    /// Cycles in which the channel was held by ≥1 worm but no flit crossed.
    pub stalled_cycles: u64,
    /// Cycles in which no lane of the channel was occupied.
    pub idle_cycles: u64,
    /// Lane grants issued on this channel.
    pub grants: u64,
}

/// Finished per-lane-index usage figures, aggregated over all channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneUsage {
    /// Grants issued to this lane index.
    pub grants: u64,
    /// Total cycles worms held this lane index (summed over channels).
    pub held_cycles: u64,
}

/// The live observer the engine drives. Construct with [`SimTrace::new`],
/// feed via the `on_*` hooks, then [`SimTrace::finish`] into a
/// [`SimSnapshot`].
#[derive(Debug, Clone)]
pub struct SimTrace {
    events_on: bool,
    // Per physical channel.
    busy: Vec<u64>,
    grants: Vec<u64>,
    held: Vec<u64>,
    occ: Vec<u32>,
    occ_start: Vec<u64>,
    // Per lane index.
    lane_grants: Vec<u64>,
    lane_held: Vec<u64>,
    // Run-wide counters.
    injected: u64,
    delivered: u64,
    unroutable: u64,
    route_decisions: u64,
    grants_total: u64,
    worm_hops: u64,
    stalls: [u64; 4],
    latency: Histogram,
    // Run-unique worm ids: the engine's worm slab reuses slots, so ids
    // are assigned from a monotone counter at injection.
    next_worm_id: u64,
    worm_id: Vec<u64>,
    sink: EventSink,
    // Windowed time-series sampler (None unless configured).
    ts: Option<TimeSeries>,
}

impl SimTrace {
    /// Observer for a network with `num_channels` physical channels and
    /// `lanes` lanes per channel.
    pub fn new(num_channels: usize, lanes: usize, cfg: &ObsConfig) -> Self {
        SimTrace {
            events_on: cfg.events,
            busy: vec![0; num_channels],
            grants: vec![0; num_channels],
            held: vec![0; num_channels],
            occ: vec![0; num_channels],
            occ_start: vec![0; num_channels],
            lane_grants: vec![0; lanes],
            lane_held: vec![0; lanes],
            injected: 0,
            delivered: 0,
            unroutable: 0,
            route_decisions: 0,
            grants_total: 0,
            worm_hops: 0,
            stalls: [0; 4],
            latency: Histogram::new(),
            next_worm_id: 0,
            worm_id: Vec::new(),
            sink: EventSink::with_capacity(if cfg.events { EVENT_CAPACITY } else { 0 }),
            ts: cfg
                .time_series
                .as_ref()
                .map(|t| TimeSeries::new(num_channels, t)),
        }
    }

    fn id_of(&self, slab: usize) -> u64 {
        self.worm_id[slab]
    }

    /// A message became a worm in slab slot `slab`.
    #[inline]
    pub fn on_inject(&mut self, slab: usize, t: u64, src: u32, dest: u32) {
        if slab >= self.worm_id.len() {
            self.worm_id.resize(slab + 1, 0);
        }
        self.worm_id[slab] = self.next_worm_id;
        self.next_worm_id += 1;
        self.injected += 1;
        if let Some(ts) = &mut self.ts {
            ts.record_inject(t);
        }
        if self.events_on {
            self.sink.push(WormEvent::Inject {
                t,
                worm: self.worm_id[slab],
                src,
                dest,
            });
        }
    }

    /// The router picked arbitration station `station` for the worm;
    /// `queued_behind` is true when the worm entered the station's FCFS
    /// queue behind other waiting worms.
    #[inline]
    pub fn on_route_chosen(&mut self, slab: usize, t: u64, station: u32, queued_behind: bool) {
        self.route_decisions += 1;
        if let Some(ts) = &mut self.ts {
            ts.record_event(t);
        }
        if self.events_on {
            self.sink.push(WormEvent::RouteChosen {
                t,
                worm: self.id_of(slab),
                station,
            });
        }
        if queued_behind {
            self.on_stall(slab, t, StallCause::FcfsQueued);
        }
    }

    /// The station granted `(channel, lane)` to the worm.
    #[inline]
    pub fn on_grant(&mut self, slab: usize, t: u64, channel: usize, lane: u16) {
        if let Some(ts) = &mut self.ts {
            ts.record_event(t);
        }
        self.grants[channel] += 1;
        self.lane_grants[lane as usize] += 1;
        self.grants_total += 1;
        if self.occ[channel] == 0 {
            self.occ_start[channel] = t;
        }
        self.occ[channel] += 1;
        if self.events_on {
            self.sink.push(WormEvent::LaneGrant {
                t,
                worm: self.id_of(slab),
                channel: channel as u32,
                lane,
            });
        }
    }

    /// A worm released `(channel, lane)` after holding it `hold` cycles.
    ///
    /// Interval accounting assumes the engine's phase order: within one
    /// cycle every grant precedes every release (a lane freed at `t`
    /// can only be re-granted at `t+1` or later), so closed intervals
    /// never overlap and their lengths sum to the exact union.
    #[inline]
    pub fn on_release(&mut self, t: u64, channel: usize, lane: u16, hold: u64) {
        if let Some(ts) = &mut self.ts {
            ts.record_event(t);
        }
        self.lane_held[lane as usize] += hold;
        debug_assert!(self.occ[channel] > 0, "release on unoccupied channel");
        self.occ[channel] -= 1;
        if self.occ[channel] == 0 {
            // Interval [occ_start, t] inclusive.
            self.held[channel] += t - self.occ_start[channel] + 1;
            if let Some(ts) = &mut self.ts {
                ts.add_held_interval(self.occ_start[channel], t);
            }
        }
    }

    /// A flit crossed `channel` at cycle `t`.
    #[inline]
    pub fn on_flit(&mut self, channel: usize, t: u64) {
        self.on_flits(channel, t, 1);
    }

    /// One flit crossed `channel` in each cycle of `[start, start + span)`:
    /// a span of [`Self::on_flit`] calls at once, for cycles the engine
    /// did not walk. Like `on_flit` it does not move the time series'
    /// sampling frontier, so it may be credited after later events.
    #[inline]
    pub fn on_flits(&mut self, channel: usize, start: u64, span: u64) {
        self.busy[channel] += span;
        if let Some(ts) = &mut self.ts {
            ts.add_busy_span(start, span);
        }
    }

    /// The worm failed to make progress this cycle.
    #[inline]
    pub fn on_stall(&mut self, slab: usize, t: u64, cause: StallCause) {
        self.stalls[cause.index()] += 1;
        if let Some(ts) = &mut self.ts {
            ts.record_event(t);
        }
        if self.events_on {
            self.sink.push(WormEvent::Stall {
                t,
                worm: self.id_of(slab),
                cause,
            });
        }
    }

    /// A generated message was dropped before injection: every surviving
    /// route to its destination runs through failed fabric. Counted both
    /// as an unroutable message and as a [`StallCause::DeadLink`] stall,
    /// keeping `stalls_dead_link == unroutable` as a conservation law.
    /// No worm was allocated, so there is no slab slot and no event.
    #[inline]
    pub fn on_unroutable(&mut self, t: u64) {
        self.unroutable += 1;
        self.stalls[StallCause::DeadLink.index()] += 1;
        if let Some(ts) = &mut self.ts {
            ts.record_unroutable(t);
        }
    }

    /// A worm in flight was defensively killed because its head reached a
    /// node with no surviving route (impossible for the shipped fault-aware
    /// routers; kept total for custom `Router` implementations). Its lane
    /// grants were real, so `hops` (the acquired path length) is added to
    /// the hop count to keep grant-vs-hop conservation closed, and the
    /// message is counted exactly like [`SimTrace::on_unroutable`].
    #[inline]
    pub fn on_killed(&mut self, slab: usize, t: u64, hops: u64) {
        self.worm_hops += hops;
        self.unroutable += 1;
        self.stalls[StallCause::DeadLink.index()] += 1;
        if let Some(ts) = &mut self.ts {
            ts.record_kill(t);
        }
        if self.events_on {
            self.sink.push(WormEvent::Stall {
                t,
                worm: self.id_of(slab),
                cause: StallCause::DeadLink,
            });
        }
    }

    /// The worm's head reached its destination PE and started draining.
    #[inline]
    pub fn on_drain(&mut self, slab: usize, t: u64) {
        if let Some(ts) = &mut self.ts {
            ts.record_event(t);
        }
        if self.events_on {
            self.sink.push(WormEvent::Drain {
                t,
                worm: self.id_of(slab),
            });
        }
    }

    /// The worm's tail was consumed; `hops` is its path length.
    #[inline]
    pub fn on_deliver(&mut self, slab: usize, t: u64, latency: u64, hops: u64) {
        self.delivered += 1;
        self.worm_hops += hops;
        self.latency.record(latency);
        if let Some(ts) = &mut self.ts {
            ts.record_deliver(t, latency);
        }
        if self.events_on {
            self.sink.push(WormEvent::Deliver {
                t,
                worm: self.id_of(slab),
                latency,
            });
        }
    }

    /// Close the trace at cycle `cycles_run`. `inflight_hops` is the sum
    /// of path lengths of worms still in the network (their lane grants
    /// were counted; their hops would otherwise not be).
    pub fn finish(mut self, cycles_run: u64, inflight_hops: u64) -> SimSnapshot {
        // Close occupancy intervals still open at the end of the run:
        // the channel was held from occ_start through cycle cycles_run − 1.
        for ch in 0..self.occ.len() {
            if self.occ[ch] > 0 {
                self.held[ch] += cycles_run.saturating_sub(self.occ_start[ch]);
                if let Some(ts) = &mut self.ts {
                    if cycles_run > self.occ_start[ch] {
                        ts.add_held_interval(self.occ_start[ch], cycles_run - 1);
                    }
                }
                self.occ[ch] = 0;
            }
        }
        self.worm_hops += inflight_hops;
        let channels = (0..self.busy.len())
            .map(|ch| {
                let busy = self.busy[ch];
                let held = self.held[ch];
                debug_assert!(busy <= held, "channel {ch}: busy {busy} > held {held}");
                debug_assert!(held <= cycles_run, "channel {ch}: held {held} > cycles");
                ChannelUsage {
                    busy_cycles: busy,
                    stalled_cycles: held.saturating_sub(busy),
                    idle_cycles: cycles_run.saturating_sub(held),
                    grants: self.grants[ch],
                }
            })
            .collect();
        let lanes = (0..self.lane_grants.len())
            .map(|l| LaneUsage {
                grants: self.lane_grants[l],
                held_cycles: self.lane_held[l],
            })
            .collect();
        let (events, events_dropped) = self.sink.into_parts();
        SimSnapshot {
            cycles: cycles_run,
            injected: self.injected,
            delivered: self.delivered,
            unroutable: self.unroutable,
            route_decisions: self.route_decisions,
            lane_grants: self.grants_total,
            worm_hops: self.worm_hops,
            stalls_link_busy: self.stalls[StallCause::LinkBusy.index()],
            stalls_no_free_lane: self.stalls[StallCause::NoFreeLane.index()],
            stalls_fcfs_queued: self.stalls[StallCause::FcfsQueued.index()],
            stalls_dead_link: self.stalls[StallCause::DeadLink.index()],
            latency: self.latency,
            channels,
            lanes,
            time_series: self.ts.map(|ts| ts.finish(cycles_run)),
            events,
            events_dropped,
        }
    }
}

/// Immutable end-of-run metric snapshot, optionally carried by the
/// simulator's `SimResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Total cycles the engine ran (walked or skipped).
    pub cycles: u64,
    /// Worms injected.
    pub injected: u64,
    /// Worms fully delivered.
    pub delivered: u64,
    /// Messages dropped (or worms defensively killed) because every
    /// surviving route to their destination runs through failed fabric.
    /// 0 on any fault-free run.
    pub unroutable: u64,
    /// Routing decisions made (one per hop request).
    pub route_decisions: u64,
    /// Lane grants issued (one per worm-hop acquisition).
    pub lane_grants: u64,
    /// Worm hops: Σ path length over delivered worms plus worms still
    /// in flight at the end of the run.
    pub worm_hops: u64,
    /// Stall observations: span denied at a physical link.
    pub stalls_link_busy: u64,
    /// Stall observations: FCFS head found no free lane.
    pub stalls_no_free_lane: u64,
    /// Stall observations: worm queued behind others at its station.
    pub stalls_fcfs_queued: u64,
    /// Stall observations: message terminally unroutable through the
    /// degraded fabric (one per unroutable message, see
    /// [`SimSnapshot::unroutable`]).
    pub stalls_dead_link: u64,
    /// End-to-end delivered-worm latency distribution (all worms,
    /// warmup included — diagnostic, not the measured estimator).
    pub latency: Histogram,
    /// Per-physical-channel usage.
    pub channels: Vec<ChannelUsage>,
    /// Per-lane-index usage (aggregated over channels).
    pub lanes: Vec<LaneUsage>,
    /// Windowed time series, when `ObsConfig::time_series` was set.
    pub time_series: Option<TimeSeriesResult>,
    /// Worm-lifecycle events, when the sink was enabled.
    pub events: Vec<WormEvent>,
    /// Events dropped because the sink hit capacity.
    pub events_dropped: u64,
}

impl SimSnapshot {
    /// Verify the conservation laws the accounting is built on:
    /// per channel `busy + stalled + idle = cycles`, and
    /// `Σ lane-grant events = Σ worm hops`.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (ch, u) in self.channels.iter().enumerate() {
            let total = u.busy_cycles + u.stalled_cycles + u.idle_cycles;
            if total != self.cycles {
                return Err(format!(
                    "channel {ch}: busy {} + stalled {} + idle {} = {total} ≠ cycles {}",
                    u.busy_cycles, u.stalled_cycles, u.idle_cycles, self.cycles
                ));
            }
        }
        let channel_grants: u64 = self.channels.iter().map(|u| u.grants).sum();
        if channel_grants != self.lane_grants {
            return Err(format!(
                "Σ per-channel grants {channel_grants} ≠ lane grants {}",
                self.lane_grants
            ));
        }
        let lane_grants: u64 = self.lanes.iter().map(|u| u.grants).sum();
        if lane_grants != self.lane_grants {
            return Err(format!(
                "Σ per-lane grants {lane_grants} ≠ lane grants {}",
                self.lane_grants
            ));
        }
        if self.lane_grants != self.worm_hops {
            return Err(format!(
                "lane grants {} ≠ worm hops {}",
                self.lane_grants, self.worm_hops
            ));
        }
        if self.stalls_dead_link != self.unroutable {
            return Err(format!(
                "dead-link stalls {} ≠ unroutable messages {}",
                self.stalls_dead_link, self.unroutable
            ));
        }
        if let Some(ts) = &self.time_series {
            // Σ per-window figures (evicted aggregate included) must
            // reconcile exactly with the run totals.
            for (what, windowed, total) in [
                ("injected", ts.total_injected(), self.injected),
                ("delivered", ts.total_delivered(), self.delivered),
                ("unroutable", ts.total_unroutable(), self.unroutable),
                ("latency sum", ts.total_latency_sum(), self.latency.sum()),
                (
                    "busy cycles",
                    ts.total_busy_cycles(),
                    self.channels.iter().map(|u| u.busy_cycles).sum(),
                ),
                (
                    "stalled cycles",
                    ts.total_stalled_cycles(),
                    self.channels.iter().map(|u| u.stalled_cycles).sum(),
                ),
            ] {
                if windowed != total {
                    return Err(format!(
                        "time series: Σ per-window {what} {windowed} ≠ run total {total}"
                    ));
                }
            }
            if ts.cycles != self.cycles {
                return Err(format!(
                    "time series cycles {} ≠ run cycles {}",
                    ts.cycles, self.cycles
                ));
            }
        }
        Ok(())
    }

    /// Total stall observations across all causes.
    pub fn total_stalls(&self) -> u64 {
        self.stalls_link_busy
            + self.stalls_no_free_lane
            + self.stalls_fcfs_queued
            + self.stalls_dead_link
    }

    /// Mean fraction of cycles channels spent transmitting a flit.
    pub fn avg_channel_utilization(&self) -> f64 {
        if self.channels.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        let busy: u64 = self.channels.iter().map(|u| u.busy_cycles).sum();
        busy as f64 / (self.cycles as f64 * self.channels.len() as f64)
    }

    /// Mean fraction of cycles channels spent held-but-stalled.
    pub fn avg_channel_stall_fraction(&self) -> f64 {
        if self.channels.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        let stalled: u64 = self.channels.iter().map(|u| u.stalled_cycles).sum();
        stalled as f64 / (self.cycles as f64 * self.channels.len() as f64)
    }

    /// Export the snapshot's scalars into a [`Registry`] (counters for
    /// lifecycle totals, gauges for derived utilizations, the latency
    /// histogram) for uniform downstream consumption.
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        for (name, v) in [
            ("worms_injected", self.injected),
            ("worms_delivered", self.delivered),
            ("worms_unroutable", self.unroutable),
            ("route_decisions", self.route_decisions),
            ("lane_grants", self.lane_grants),
            ("worm_hops", self.worm_hops),
            ("stalls_link_busy", self.stalls_link_busy),
            ("stalls_no_free_lane", self.stalls_no_free_lane),
            ("stalls_fcfs_queued", self.stalls_fcfs_queued),
            ("stalls_dead_link", self.stalls_dead_link),
            ("events_dropped", self.events_dropped),
        ] {
            let id = r.counter(name);
            r.inc(id, v);
        }
        let util = r.gauge("avg_channel_utilization");
        r.set(util, self.avg_channel_utilization());
        let stall = r.gauge("avg_channel_stall_fraction");
        r.set(stall, self.avg_channel_stall_fraction());
        r.insert_histogram("delivered_latency_cycles", self.latency.clone());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_union_and_conservation() {
        let cfg = ObsConfig::counters_only();
        let mut tr = SimTrace::new(2, 2, &cfg);
        // Phase-ordered replay (grants precede releases within a cycle).
        // Worm A holds ch0 lane0 over [1,2]; worm B holds ch0 lane1 over
        // [2,4]; union-held = [1,4] = 4 cycles, three flits cross ch0.
        tr.on_inject(0, 0, 0, 1);
        tr.on_inject(1, 1, 2, 3);
        tr.on_route_chosen(0, 1, 0, false);
        tr.on_grant(0, 1, 0, 0); // t=1 phase 2: A granted
        tr.on_flit(0, 1); // t=1 phase 4: A advances
        tr.on_route_chosen(1, 2, 0, true); // t=2 phase 1: B queued behind A
        tr.on_grant(1, 2, 0, 1); // t=2 phase 2: B granted (occ 1→2)
        tr.on_flit(0, 2); // t=2: A advances again...
        tr.on_release(2, 0, 0, 2); // ...and its tail frees lane0 (hold 2)
        tr.on_drain(0, 2);
        tr.on_deliver(0, 3, 4, 1);
        tr.on_stall(1, 3, StallCause::LinkBusy);
        tr.on_flit(0, 4); // t=4: B advances
        tr.on_release(4, 0, 1, 3);
        tr.on_deliver(1, 5, 5, 1);
        let snap = tr.finish(10, 0);
        assert_eq!(snap.channels[0].busy_cycles, 3);
        assert_eq!(snap.channels[0].stalled_cycles, 1); // held 4 − busy 3
        assert_eq!(snap.channels[0].idle_cycles, 6);
        assert_eq!(snap.channels[1].idle_cycles, 10);
        assert_eq!(snap.injected, 2);
        assert_eq!(snap.delivered, 2);
        assert_eq!(snap.lane_grants, 2);
        assert_eq!(snap.worm_hops, 2);
        assert_eq!(snap.stalls_fcfs_queued, 1);
        assert_eq!(snap.stalls_link_busy, 1);
        snap.check_conservation().unwrap();
    }

    #[test]
    fn open_intervals_closed_at_finish() {
        let cfg = ObsConfig::counters_only();
        let mut tr = SimTrace::new(1, 1, &cfg);
        tr.on_inject(0, 0, 0, 1);
        tr.on_grant(0, 3, 0, 0);
        tr.on_flit(0, 3);
        // Never released: held should cover [3, 9] = 7 cycles of a 10-cycle run.
        let snap = tr.finish(10, 1);
        assert_eq!(snap.channels[0].busy_cycles, 1);
        assert_eq!(snap.channels[0].stalled_cycles, 6);
        assert_eq!(snap.channels[0].idle_cycles, 3);
        assert_eq!(snap.worm_hops, 1); // in-flight hop counted
        snap.check_conservation().unwrap();
    }

    #[test]
    fn worm_ids_are_unique_across_slab_reuse() {
        let cfg = ObsConfig::full();
        let mut tr = SimTrace::new(1, 1, &cfg);
        tr.on_inject(0, 0, 0, 1);
        tr.on_deliver(0, 1, 2, 0);
        tr.on_inject(0, 2, 1, 0); // slab slot 0 reused
        tr.on_deliver(0, 3, 2, 0);
        let snap = tr.finish(4, 0);
        let ids: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| matches!(e, WormEvent::Inject { .. }))
            .map(|e| e.worm())
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn unroutable_and_killed_keep_conservation_closed() {
        let cfg = ObsConfig::full();
        let mut tr = SimTrace::new(1, 1, &cfg);
        // Two messages dropped before injection...
        tr.on_unroutable(3);
        tr.on_unroutable(5);
        // ...and one injected worm defensively killed after one hop.
        tr.on_inject(0, 1, 0, 1);
        tr.on_grant(0, 1, 0, 0);
        tr.on_release(4, 0, 0, 4);
        tr.on_killed(0, 4, 1);
        let snap = tr.finish(10, 0);
        assert_eq!(snap.unroutable, 3);
        assert_eq!(snap.stalls_dead_link, 3);
        assert_eq!(snap.worm_hops, 1); // the killed worm's grant is covered
        assert_eq!(snap.total_stalls(), 3);
        snap.check_conservation().unwrap();
        // The kill left a Stall event with the dead-link cause.
        assert!(snap.events.iter().any(|e| matches!(
            e,
            WormEvent::Stall {
                cause: StallCause::DeadLink,
                ..
            }
        )));
    }

    #[test]
    fn dead_link_mismatch_is_caught() {
        let cfg = ObsConfig::counters_only();
        let mut tr = SimTrace::new(0, 1, &cfg);
        tr.on_unroutable(1);
        let mut snap = tr.finish(1, 0);
        snap.unroutable = 0; // forge a mismatch
        assert!(snap.check_conservation().is_err());
    }

    #[test]
    fn windowed_replay_reconciles_and_is_batching_invariant() {
        // A per-cycle replay must reconcile its windows with the run
        // totals via check_conservation.
        let cfg = ObsConfig::counters_only().with_time_series(4);
        let mut tr = SimTrace::new(1, 1, &cfg);
        tr.on_inject(0, 1, 0, 1);
        tr.on_route_chosen(0, 1, 0, false);
        tr.on_grant(0, 1, 0, 0);
        // Six flits over [2, 8), one per walked cycle.
        for t in 2..8 {
            tr.on_flit(0, t);
        }
        tr.on_release(8, 0, 0, 7);
        tr.on_drain(0, 8);
        tr.on_deliver(0, 9, 8, 1);
        let walked = tr.finish(12, 0);
        walked.check_conservation().unwrap();
        let ts = walked.time_series.unwrap();
        assert_eq!(ts.window_cycles, 4);
        // Windows [0,4): flits at 2,3 → busy 2, held [1,3] = 3;
        // [4,8): busy 4, held 4; [8,12): held [8,8] = 1, deliver at 9.
        assert_eq!(ts.windows[0].busy_cycles, 2);
        assert_eq!(ts.windows[0].held_cycles, 3);
        assert_eq!(ts.windows[1].busy_cycles, 4);
        assert_eq!(ts.windows[1].held_cycles, 4);
        assert_eq!(ts.windows[2].busy_cycles, 0);
        assert_eq!(ts.windows[2].held_cycles, 1);
        assert_eq!(ts.windows[2].delivered, 1);
        assert_eq!(ts.windows[0].in_flight_at_end, 1);
        assert_eq!(ts.windows[1].in_flight_at_end, 1);
        assert_eq!(ts.windows[2].in_flight_at_end, 0);
    }
}
