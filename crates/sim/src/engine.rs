//! The cycle-accurate wormhole engine.
//!
//! # Semantics (one cycle)
//!
//! 1. **Arrivals** — Poisson sources deposit messages into per-PE source
//!    queues; a PE with no worm currently contending for its injection
//!    channel activates its queue head.
//! 2. **Requests** — every worm whose head reached a new node last cycle
//!    (or was just activated) joins the FCFS queue of the station the
//!    router's [`FlowRouting::route`](wormsim_workload::FlowRouting::route)
//!    names: a [`Route::Channel`] queues on that channel's station with
//!    every member allowed, a [`Route::Bundle`] on its station with its
//!    member mask. A fresh worm requests its injection channel. A route
//!    whose station is not at the head's node (a misrouting custom
//!    router) is treated as [`Route::Unreachable`]: the worm is killed and
//!    counted unroutable, so every path is a walk of the network.
//!    Same-cycle requesters are enqueued in random order (random
//!    tie-break, earlier requesters always keep priority).
//! 3. **Grants** — each station with waiting worms hands free member
//!    channels that the queue head's mask allows ([`member_allowed`]) to
//!    queue heads (random member when several are free — the paper's
//!    random up-link choice).
//! 4. **Advance** — granted worms advance one hop: the head flit traverses
//!    the new channel this cycle and every in-network flit behind moves up
//!    one channel (rigid chain). Worms whose head already ejected drain one
//!    flit into their sink. A channel is released the cycle its worm's tail
//!    flit leaves it and can be re-granted from the next cycle.
//!
//! With worm length `s` and acquired path length `D` (injection + switch
//! hops + ejection), advancement number `a` has flit `j` traversing channel
//! `a − j + 1`; channel `k` is released at the end of advancement
//! `k + s − 1`, the head ejects at advancement `D`, and the message
//! completes at advancement `D + s − 1` — reproducing the paper's
//! unblocked service time `x̄ = s/f` per channel and zero-load latency
//! `s/f + D − 1`.
//!
//! # Fast-forwarding
//!
//! At the paper's validation loads most cycles are *provably idle*: no
//! arrival surfaces, no worm has a pending request, every draining worm
//! is dormant (below), and no station was re-armed by a release. Such a
//! cycle touches no state (the request shuffle is over an empty list and
//! the grant loop never runs), and — crucially — makes **no RNG draw**:
//! the Fisher–Yates shuffle of an empty list draws nothing, grants only
//! draw when a station with waiting worms has more than one free member,
//! and arrival times are pre-sampled into the source heap. [`Engine::run`]
//! therefore maintains a next-event horizon — the earliest of the cycle at
//! which the pending arrival at the top of the traffic heap surfaces and
//! the cycle the first dormant drainer wakes (any other active worm's next
//! event is always "next cycle", so it simply disables the skip) — and
//! jumps `now` across the idle span instead of executing it, clamped at
//! the warmup/measurement/drain boundaries so window bookkeeping sees the
//! same cycle numbers.
//!
//! **Dormant drains** (`L = 1`). A single-lane drainer never stalls, and
//! until its tail flit leaves the injection channel (advancement `s`) a
//! drain step releases nothing and completes nothing: it only counts. So
//! a worm that ejects at advancement `D < s − 1` takes its `s − 1 − D`
//! silent steps at once and sleeps until the cycle of its first release,
//! keeping its `drain_list` position (whose `swap_remove` order fixes the
//! release, station re-arm and completion order). The observer is credited
//! the skipped steps' flits when the worm wakes, or at the end of the run.
//!
//! Results are bit-for-bit identical to cycle stepping;
//! `tests/fast_forward_replay.rs` proves it field-by-field. Select
//! [`EngineKind::Reference`] with [`Engine::set_engine_kind`] to recover
//! the plain cycle walk — the oracle the differential suites compare
//! against.
//!
//! # Virtual channels (lanes)
//!
//! Each physical channel carries `L ≥ 1` *lanes*
//! ([`wormsim_lanes::LaneConfig`]), each buffering one worm. A station
//! grant hands out a `(channel, lane)` pair: the channel is picked exactly
//! as before (random free member), the lane within it is the lowest free
//! one — no RNG draw, so the random stream is untouched by lane
//! allocation. Occupied lanes of one physical channel **share its flit
//! bandwidth**: per cycle a channel transmits at most one flit, and a
//! worm advances only when every channel of its moving span has a free
//! flit slot this cycle; otherwise it *stalls* (all flits hold) and
//! retries. Bandwidth priority within a cycle is draining worms, then
//! previously stalled worms (FCFS), then freshly granted ones. At `L = 1`
//! a worm owns every channel it occupies, a span reservation can never
//! fail, and the whole mechanism is bypassed — `L = 1` runs are
//! bit-for-bit identical to the single-lane engine (pinned in
//! `tests/lanes_regression.rs`).
//!
//! # Path arena
//!
//! Worm paths live in a slab of `Vec<Hop>` (channel + lane) keyed by
//! `WormIdx`, parallel to the worm slab. Freeing a worm clears its path
//! but keeps the allocation, and re-allocating a slot reuses it — after
//! the initial ramp-up the steady-state hot path allocates nothing per
//! message.

use crate::config::{EngineKind, SimConfig, TrafficConfig};
use crate::router::Router;
use crate::runner::SimResult;
use crate::stats::{BatchMeans, ClassAudit, Percentiles, Welford};
use crate::traffic::{Arrival, TrafficGenerator};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use wormsim_lanes::{LaneAudit, LaneConfig, LaneTable};
use wormsim_obs::{ObsConfig, SimTrace, StallCause};
use wormsim_topology::graph::NodeKind;
use wormsim_topology::ids::{ChannelId, StationId};
use wormsim_workload::{member_allowed, Route};

/// Dense worm index into the engine's slab.
type WormIdx = u32;

const NO_WORM: u32 = u32::MAX;

/// Sentinel holder for lanes of channels the fault plan killed: occupied
/// at construction and never released, so the grant scan can never hand
/// out a dead channel — faults cost nothing per cycle.
const DEAD_WORM: u32 = u32::MAX - 1;

/// Lifecycle state of a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WormState {
    /// Head arrived somewhere; will issue its next request this cycle.
    PendingRequest,
    /// Waiting in a station queue.
    Queued,
    /// Granted a lane but denied flit bandwidth on its moving span; all
    /// flits hold and the advancement retries next cycle. Only reachable
    /// with `L > 1` lanes — a single-lane worm owns its whole span.
    Stalled,
    /// Head consumed at the destination; drains one flit per cycle.
    Draining,
    /// Slab slot is free.
    Free,
}

/// One acquired hop of a worm's path: the physical channel and the lane
/// it holds on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    ch: ChannelId,
    lane: u16,
}

/// One worm (message in flight). The acquired path lives in the engine's
/// path arena under the same `WormIdx`, keeping this record `Copy` and the
/// slab reusable without per-message allocation.
#[derive(Debug, Clone, Copy)]
struct Worm {
    src: u32,
    dest: u32,
    gen_time: u64,
    len_flits: u32,
    /// Advancements performed (see module docs for the flit arithmetic).
    advancements: u32,
    state: WormState,
    /// Cycle the current station request was issued.
    request_time: u64,
    /// Whether this message belongs to the measured population.
    measured: bool,
    /// Member mask of the requested station, set per request from the
    /// router's [`Route`] and read through [`member_allowed`]. All-ones
    /// for a [`Route::Channel`] request.
    route_mask: u16,
    /// Cycle a dormant drainer takes its next drain step (module docs);
    /// 0 for a worm that never went dormant — no worm drains at cycle 0.
    wake: u64,
}

/// Per-PE source state.
#[derive(Debug, Default)]
struct Source {
    /// Messages generated but not yet turned into worms.
    pending: VecDeque<(u32, u64)>,
    /// A worm from this PE currently queued on (or not yet granted) the
    /// injection channel.
    worm_waiting: bool,
}

/// The simulator core. Construct with [`Engine::with_lanes`] and consume
/// with [`Engine::run`].
pub struct Engine<'a, R: Router> {
    router: &'a R,
    cfg: SimConfig,
    traffic: TrafficConfig,
    rng: SmallRng,
    now: u64,

    // Network state. Lane-granular occupancy: slot `ch·L + lane` holds the
    // occupying worm (or NO_WORM) and its grant cycle; `lane_table` mirrors
    // the free/busy masks and picks the lane of a grant;
    // `slot_used` stamps, per physical channel, the last cycle its single
    // flit slot was consumed (only consulted when `L > 1`).
    lane_holder: Vec<WormIdx>,
    lane_grant_time: Vec<u64>,
    lane_table: LaneTable,
    lane_audit: LaneAudit,
    slot_used: Vec<u64>,
    channel_class_idx: Vec<u16>,
    station_queue: Vec<VecDeque<WormIdx>>,
    station_ready: Vec<bool>,
    ready_stations: Vec<StationId>,
    /// Grant-phase scratch: the queue head's member channels with a free
    /// lane, in member order (cleared for every head).
    free_members: Vec<ChannelId>,

    // Worm slab. `paths[w]` is worm `w`'s acquired hops, in order
    // (index 0 is the injection channel); cleared-but-retained on free.
    worms: Vec<Worm>,
    paths: Vec<Vec<Hop>>,
    free_worms: Vec<WormIdx>,
    drain_list: Vec<WormIdx>,
    stall_list: Vec<WormIdx>,
    pending_requests: Vec<WormIdx>,
    next_pending: Vec<WormIdx>,
    granted: Vec<(WormIdx, ChannelId, u16)>,

    // Sources.
    sources: Vec<Source>,
    traffic_gen: TrafficGenerator,
    arrivals: Vec<Arrival>,

    // Measurement.
    window_start: u64,
    window_end: u64,
    latency: BatchMeans,
    latency_sample: Percentiles,
    injection_wait: Welford,
    audit: ClassAudit,
    generated_total: u64,
    completed_total: u64,
    unroutable_total: u64,
    unroutable_in_window: u64,
    generated_in_window: u64,
    completed_in_window: u64,
    completed_measured: u64,
    outstanding_measured: u64,
    backlog_at_window_start: u64,
    backlog_at_window_end: u64,
    max_active_worms: usize,

    // Execution mode (see module docs): whether idle spans are skipped.
    // Both modes are bit-exact.
    kind: EngineKind,
    cycles_skipped: u64,

    /// Optional observer ([`Engine::set_observer`]). `None` makes every
    /// hook site one not-taken branch.
    /// Hooks never draw RNG and never alter control flow, so observed
    /// runs are bit-for-bit identical to bare runs under every kind.
    obs: Option<Box<SimTrace>>,
}

impl<'a, R: Router> Engine<'a, R> {
    /// Builds an engine whose physical channels each carry the configured
    /// number of virtual-channel lanes. `lanes` is validated by
    /// construction ([`LaneConfig::new`]), so no further checks apply;
    /// [`LaneConfig::single`] gives the paper's single-lane channels.
    ///
    /// # Panics
    ///
    /// Panics when the network has fewer than two processors, a traffic
    /// destination pattern maps outside the PE range, or the router's
    /// fault plan was built for a different network.
    #[must_use]
    // `ClassAudit::new` registers every class present in the network it was
    // built from, so the index lookup is total — construction-local invariant.
    #[allow(clippy::expect_used)]
    pub fn with_lanes(
        router: &'a R,
        cfg: &SimConfig,
        traffic: &TrafficConfig,
        lanes: &LaneConfig,
    ) -> Self {
        let net = router.network();
        let n_pe = net.num_processors();
        assert!(n_pe >= 2, "simulation needs at least two PEs");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let traffic_gen = TrafficGenerator::new(n_pe, traffic, &mut rng);
        let audit = ClassAudit::new(net);
        let channel_class_idx = net
            .channels()
            .iter()
            .map(|ch| {
                audit
                    .class_index(ch.class)
                    .expect("every channel class is registered") as u16
            })
            .collect();
        let window_start = cfg.warmup_cycles;
        let window_end = cfg.warmup_cycles + cfg.measure_cycles;
        let expected_msgs =
            (traffic.message_rate * n_pe as f64 * cfg.measure_cycles as f64).ceil() as u64;
        let lane_slots = net.num_channels() * lanes.lanes() as usize;
        // Apply the router's fault plan, if any: every lane of a dead
        // channel is pre-occupied by a sentinel holder that never releases,
        // so the unmodified grant scan simply never sees the channel.
        let mut lane_holder = vec![NO_WORM; lane_slots];
        let mut lane_table = LaneTable::new(net.num_channels(), lanes);
        if let Some(plan) = router.fault_plan() {
            assert_eq!(
                plan.num_channels(),
                net.num_channels(),
                "fault plan shape must match the routed network"
            );
            for ch in 0..net.num_channels() {
                if plan.channel_dead(ChannelId::from(ch)) {
                    while let Some(lane) = lane_table.allocate(ch) {
                        lane_holder[ch * lanes.lanes() as usize + lane as usize] = DEAD_WORM;
                    }
                }
            }
        }
        Self {
            router,
            cfg: *cfg,
            traffic: *traffic,
            rng,
            now: 0,
            lane_holder,
            lane_grant_time: vec![0; lane_slots],
            lane_table,
            lane_audit: LaneAudit::new(lanes.lanes()),
            slot_used: vec![u64::MAX; net.num_channels()],
            channel_class_idx,
            station_queue: vec![VecDeque::new(); net.num_stations()],
            station_ready: vec![false; net.num_stations()],
            ready_stations: Vec::with_capacity(64),
            free_members: Vec::with_capacity(8),
            worms: Vec::with_capacity(1024),
            paths: Vec::with_capacity(1024),
            free_worms: Vec::new(),
            drain_list: Vec::with_capacity(256),
            stall_list: Vec::with_capacity(64),
            pending_requests: Vec::with_capacity(256),
            next_pending: Vec::with_capacity(256),
            granted: Vec::with_capacity(256),
            sources: (0..n_pe).map(|_| Source::default()).collect(),
            traffic_gen,
            arrivals: Vec::with_capacity(64),
            window_start,
            window_end,
            latency: BatchMeans::new(cfg.batches, expected_msgs.max(16)),
            latency_sample: Percentiles::new(),
            injection_wait: Welford::new(),
            audit: ClassAudit::new(net),
            generated_total: 0,
            completed_total: 0,
            unroutable_total: 0,
            unroutable_in_window: 0,
            generated_in_window: 0,
            completed_in_window: 0,
            completed_measured: 0,
            outstanding_measured: 0,
            backlog_at_window_start: 0,
            backlog_at_window_end: 0,
            max_active_worms: 0,
            kind: EngineKind::FastForward,
            cycles_skipped: 0,
            obs: None,
        }
    }

    /// Selects the execution core (default [`EngineKind::FastForward`]).
    /// Call before the first cycle runs.
    ///
    /// Results are bit-for-bit identical across both kinds; only which
    /// cycles are individually walked differs (see the module docs).
    pub fn set_engine_kind(&mut self, kind: EngineKind) {
        debug_assert_eq!(self.now, 0, "select the engine before running");
        self.kind = kind;
    }

    /// Attaches the observability layer: per-channel busy / stalled /
    /// idle accounting, per-lane grant tracking and, as `cfg` asks,
    /// worm-lifecycle events and a time series ([`wormsim_obs`]). Call
    /// before the first cycle runs; an engine never given an observer
    /// runs bare.
    ///
    /// Observation is RNG-neutral — hooks never draw from the simulation
    /// RNG and never change control flow — so the run's `SimResult` is
    /// bit-for-bit identical with or without an observer, and the
    /// captured snapshot itself is identical across both
    /// [`EngineKind`]s (events only occur at worm state transitions,
    /// which happen in individually-walked cycles under either kind).
    pub fn set_observer(&mut self, cfg: &ObsConfig) {
        debug_assert_eq!(self.now, 0, "attach the observer before running");
        self.obs = Some(Box::new(SimTrace::new(
            self.router.network().num_channels(),
            self.lane_table.lanes() as usize,
            cfg,
        )));
    }

    /// Cycles not individually walked so far: idle spans jumped by
    /// fast-forwarding. 0 for the reference engine.
    #[must_use]
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Whether ejected worms sleep through their silent drain steps (module
    /// docs): the fast-forward core on single-lane channels, where a
    /// drainer can never stall.
    fn dormant_drains(&self) -> bool {
        self.kind == EngineKind::FastForward && self.lane_table.lanes() == 1
    }

    fn in_window(&self, t: u64) -> bool {
        (self.window_start..self.window_end).contains(&t)
    }

    fn alloc_worm(&mut self, src: u32, dest: u32, gen_time: u64) -> WormIdx {
        let measured = self.in_window(gen_time);
        if measured {
            self.outstanding_measured += 1;
        }
        let worm = Worm {
            src,
            dest,
            gen_time,
            len_flits: self.traffic.worm_flits,
            advancements: 0,
            state: WormState::PendingRequest,
            request_time: gen_time,
            measured,
            route_mask: u16::MAX,
            wake: 0,
        };
        let idx = if let Some(idx) = self.free_worms.pop() {
            // Slot reuse: the path vector was cleared at finalize and keeps
            // its capacity, so steady state allocates nothing per message.
            debug_assert!(self.paths[idx as usize].is_empty());
            self.worms[idx as usize] = worm;
            idx
        } else {
            self.worms.push(worm);
            self.paths.push(Vec::with_capacity(16));
            (self.worms.len() - 1) as WormIdx
        };
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_inject(idx as usize, self.now, src, dest);
        }
        idx
    }

    fn mark_station_ready(&mut self, st: StationId) {
        if !self.station_ready[st.index()] {
            self.station_ready[st.index()] = true;
            self.ready_stations.push(st);
        }
    }

    /// Turns the head of a PE's source queue into a worm contending for the
    /// injection channel. Messages whose destination the surviving fabric
    /// cannot reach
    /// ([`FlowRouting::reachable`](wormsim_workload::FlowRouting::reachable))
    /// are dropped here
    /// (counted as unroutable, never becoming worms) and the next queued
    /// message gets its turn — graceful degradation instead of a
    /// head-of-line hang.
    fn activate_source(&mut self, pe: usize, into_next_cycle: bool) {
        debug_assert!(!self.sources[pe].worm_waiting);
        while let Some((dest, gen)) = self.sources[pe].pending.pop_front() {
            if !self.router.reachable(pe, dest as usize) {
                self.record_unroutable(gen);
                continue;
            }
            let w = self.alloc_worm(pe as u32, dest, gen);
            self.sources[pe].worm_waiting = true;
            if into_next_cycle {
                self.next_pending.push(w);
            } else {
                self.pending_requests.push(w);
            }
            return;
        }
    }

    /// Accounts one message that can never be delivered through the
    /// degraded fabric. Window membership follows the generation time,
    /// like `generated_in_window`, so `SimResult::messages_unroutable`
    /// is comparable with `messages_measured`.
    fn record_unroutable(&mut self, gen_time: u64) {
        self.unroutable_total += 1;
        if self.in_window(gen_time) {
            self.unroutable_in_window += 1;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_unroutable(self.now);
        }
    }

    /// Defensively removes a worm whose head reached a node with no
    /// surviving route, or whose route does not leave that node. The
    /// shipped routers make this unreachable —
    /// admission checks plus monotone route masks keep every admitted worm
    /// on surviving fabric (proven by
    /// `admitted_worms_never_strand_under_random_plans`) — but a custom
    /// [`Router`] could misroute, and the engine must degrade to an
    /// accounted drop rather than a panic or a wedged station queue.
    fn kill_worm(&mut self, widx: WormIdx, t: u64) {
        let (adv, len, gen, measured) = {
            let w = &self.worms[widx as usize];
            (
                w.advancements as usize,
                w.len_flits as usize,
                w.gen_time,
                w.measured,
            )
        };
        // Release every hop the tail had not yet cleared (hop `i` was
        // already released iff `advancements ≥ len + i`).
        let path = std::mem::take(&mut self.paths[widx as usize]);
        for (i, &hop) in path.iter().enumerate() {
            if adv < len + i {
                self.release_hop(widx, hop, t);
            }
        }
        if measured {
            self.outstanding_measured -= 1;
        }
        // Its injection slot is free again; the source may stage the next
        // message (mirrors the first-hop handover in phase 4 — a killed
        // worm that never injected still owns the waiting slot).
        if path.is_empty() {
            let pe = self.worms[widx as usize].src as usize;
            self.sources[pe].worm_waiting = false;
        }
        self.unroutable_total += 1;
        if self.in_window(gen) {
            self.unroutable_in_window += 1;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_killed(widx as usize, t, path.len() as u64);
        }
        self.paths[widx as usize] = path;
        self.paths[widx as usize].clear();
        self.worms[widx as usize].state = WormState::Free;
        self.free_worms.push(widx);
    }

    /// Dense index of `(channel, lane)` into the lane-slot arrays.
    fn lane_slot(&self, ch: ChannelId, lane: u16) -> usize {
        ch.index() * self.lane_table.lanes() as usize + lane as usize
    }

    /// Releases the tail lane if the worm's tail flit has passed it.
    fn release_tail(&mut self, widx: WormIdx, t: u64) {
        let (adv, len) = {
            let w = &self.worms[widx as usize];
            (w.advancements, w.len_flits)
        };
        if adv < len {
            return;
        }
        if let Some(&hop) = self.paths[widx as usize].get((adv - len) as usize) {
            self.release_hop(widx, hop, t);
        }
    }

    /// Frees the worm's lane on `hop` at cycle `t`: audits the hold when
    /// the lane was granted inside the window, tells the observer, and
    /// re-arms the channel's station.
    fn release_hop(&mut self, widx: WormIdx, hop: Hop, t: u64) {
        let slot = self.lane_slot(hop.ch, hop.lane);
        debug_assert_eq!(self.lane_holder[slot], widx, "release by holder only");
        self.lane_holder[slot] = NO_WORM;
        self.lane_table.release(hop.ch.index(), hop.lane);
        let granted_at = self.lane_grant_time[slot];
        let hold = t - granted_at + 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_release(t, hop.ch.index(), hop.lane, hold);
        }
        if self.in_window(granted_at) {
            self.audit
                .record_release(self.channel_class_idx[hop.ch.index()] as usize, hold);
            self.lane_audit.record_release(hop.lane, hold);
        }
        let st = self.router.network().channel(hop.ch).station;
        self.mark_station_ready(st);
    }

    /// Attempts to reserve this cycle's flit slot on every channel of the
    /// worm's moving span (the channels its flits would traverse during
    /// advancement `advancements + 1`). All-or-nothing: a rigid chain
    /// cannot move partially. With single-lane channels a worm owns its
    /// whole span, so the reservation trivially succeeds and is skipped.
    fn try_reserve_span(&mut self, widx: WormIdx, t: u64) -> bool {
        if self.lane_table.lanes() == 1 {
            return true;
        }
        let (a, s) = {
            let w = &self.worms[widx as usize];
            (w.advancements as usize + 1, w.len_flits as usize)
        };
        let path = &self.paths[widx as usize];
        // Flit `j` traverses channel `a − j + 1` (1-based; module docs), so
        // the span is 0-based hop indices `max(0, a−s) .. min(d, a)`.
        let span = path[a.saturating_sub(s)..path.len().min(a)].iter();
        if span.clone().any(|hop| self.slot_used[hop.ch.index()] == t) {
            return false;
        }
        for hop in span {
            self.slot_used[hop.ch.index()] = t;
        }
        true
    }

    /// Observer hook: records the flit transmissions of the advancement
    /// the worm just performed (call right after `advancements += 1`).
    /// The channels crossed are exactly the reservation span of
    /// [`Engine::try_reserve_span`] for this advancement.
    #[inline]
    fn observe_advance(&mut self, widx: WormIdx, t: u64) {
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        let (a, s) = {
            let w = &self.worms[widx as usize];
            (w.advancements as usize, w.len_flits as usize)
        };
        let path = &self.paths[widx as usize];
        for hop in &path[a.saturating_sub(s)..path.len().min(a)] {
            o.on_flit(hop.ch.index(), t);
        }
    }

    /// Observer hook for a dormant drainer that ejected at cycle `t_e`:
    /// credits the flits its skipped drain steps sent in cycles
    /// `[t_e + 1, end)`, where `end` is its wake or the end of the run.
    /// Each of those steps moved one flit across every hop of the path,
    /// since its tail had not yet left the injection channel.
    fn observe_dormant(&mut self, widx: WormIdx, end: u64) {
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        let w = &self.worms[widx as usize];
        let path = &self.paths[widx as usize];
        let first = w.wake - u64::from(w.len_flits - 1).saturating_sub(path.len() as u64);
        for hop in path {
            o.on_flits(hop.ch.index(), first, end - first);
        }
    }

    /// Performs the pending advancement of a granted (or stalled) worm —
    /// its head traverses the most recently granted channel — and routes
    /// it onward: eject into drain/completion, or request the next hop.
    // A worm being advanced has traversed at least its injection channel,
    // so its path is non-empty. Per-advance hot path — kept as an expect.
    #[allow(clippy::expect_used)]
    fn complete_advance(&mut self, widx: WormIdx, t: u64) {
        self.worms[widx as usize].advancements += 1;
        self.observe_advance(widx, t);
        self.release_tail(widx, t);
        let last_ch = self.paths[widx as usize].last().expect("non-empty").ch;
        let dst_is_pe = matches!(
            self.router
                .network()
                .node(self.router.network().channel(last_ch).dst)
                .kind,
            NodeKind::Processor { .. }
        );
        if dst_is_pe {
            let done = {
                let w = &self.worms[widx as usize];
                w.advancements as usize
                    == self.paths[widx as usize].len() + w.len_flits as usize - 1
            };
            if done {
                // Single-flit worms complete the cycle they eject.
                self.finalize(widx, t);
            } else {
                self.worms[widx as usize].state = WormState::Draining;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_drain(widx as usize, t);
                }
                if self.dormant_drains() {
                    // Take the silent steps before the tail leaves hop 0
                    // (advancement `s`) now; wake for the first release.
                    let w = &mut self.worms[widx as usize];
                    let dormant = (w.len_flits - 1).saturating_sub(w.advancements);
                    w.advancements += dormant;
                    w.wake = t + u64::from(dormant) + 1;
                }
                self.drain_list.push(widx);
            }
        } else {
            self.worms[widx as usize].state = WormState::PendingRequest;
            self.next_pending.push(widx);
        }
    }

    /// Message fully consumed: record latency, free the slab slot.
    fn finalize(&mut self, widx: WormIdx, t: u64) {
        let (gen, measured) = {
            let w = &self.worms[widx as usize];
            debug_assert_eq!(
                w.advancements as usize,
                self.paths[widx as usize].len() + w.len_flits as usize - 1,
                "completion arithmetic"
            );
            (w.gen_time, w.measured)
        };
        self.completed_total += 1;
        if self.in_window(t) {
            self.completed_in_window += 1;
        }
        if measured {
            let latency = (t - gen + 1) as f64;
            self.latency.add(latency);
            self.latency_sample.add(latency);
            self.completed_measured += 1;
            self.outstanding_measured -= 1;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_deliver(
                widx as usize,
                t,
                t - gen + 1,
                self.paths[widx as usize].len() as u64,
            );
        }
        self.worms[widx as usize].state = WormState::Free;
        self.paths[widx as usize].clear();
        self.free_worms.push(widx);
    }

    /// Fast-forwards `now` across a provably idle span, never past `limit`.
    ///
    /// A span starting at `now` is idle when no worm can act (no pending
    /// request, no stalled worm, no station re-armed by a release, and
    /// every drainer dormant) and neither an arrival surfaces nor a dormant
    /// drainer wakes before the horizon. Every cycle in the span is a
    /// no-op in the reference engine apart from the dormant drainers'
    /// already-taken step counts — and makes no RNG draw — so jumping over
    /// it preserves the simulation bit-for-bit. Returns `true` when `now`
    /// moved (the caller re-checks its window boundaries).
    fn skip_idle(&mut self, limit: u64) -> bool {
        if self.kind == EngineKind::Reference
            || !self.pending_requests.is_empty()
            || !self.stall_list.is_empty()
            || !self.ready_stations.is_empty()
        {
            return false;
        }
        // No arrival pending at all (zero-rate sources): idle until limit.
        let horizon = self
            .traffic_gen
            .next_arrival_cycle()
            .map_or(limit, |c| c.clamp(self.now, limit));
        // An awake drainer (`wake ≤ now`) pins the horizon at `now`.
        let horizon = self
            .drain_list
            .iter()
            .fold(horizon, |h, &w| h.min(self.worms[w as usize].wake));
        if horizon > self.now {
            self.cycles_skipped += horizon - self.now;
            self.now = horizon;
            true
        } else {
            false
        }
    }

    /// One simulated cycle.
    // The two expects restate arbitration invariants proven in the same
    // block: a channel with `has_free` yields a lane, and a granted station
    // has a queued head worm. Per-cycle hot path — kept as expects.
    #[allow(clippy::expect_used)]
    fn step(&mut self) {
        let t = self.now;

        // Phase 0: arrivals.
        self.arrivals.clear();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.traffic_gen
            .arrivals_into(t, &mut self.rng, &mut arrivals);
        for a in &arrivals {
            debug_assert!(
                a.dest < self.sources.len(),
                "pattern must map inside PE range"
            );
            self.sources[a.src]
                .pending
                .push_back((a.dest as u32, a.cycle));
            self.generated_total += 1;
            if self.in_window(t) {
                self.generated_in_window += 1;
            }
            if !self.sources[a.src].worm_waiting {
                self.activate_source(a.src, false);
            }
        }
        self.arrivals = arrivals;

        // Phase 1: requests (random tie-break among same-cycle requesters).
        let mut pending = std::mem::take(&mut self.pending_requests);
        pending.shuffle(&mut self.rng);
        for widx in pending.drain(..) {
            let net = self.router.network();
            let (head, dest, src) = {
                let w = &self.worms[widx as usize];
                debug_assert_eq!(w.state, WormState::PendingRequest);
                let head = self.paths[widx as usize]
                    .last()
                    .map(|h| net.channel(h.ch).dst);
                (head, w.dest as usize, w.src as usize)
            };
            let (node, route) = match head {
                // Injection request: the source PE's injection channel
                // (its aliveness was checked at admission).
                None => {
                    let pe = &net.processors()[src];
                    (pe.node, Route::Channel(pe.inject))
                }
                // Switch hop: route from the head's node.
                Some(node) => (node, self.router.route(node, dest)),
            };
            // The route's member mask is what the grant phase respects. A
            // dead-end head, or a route that does not leave the head's
            // node (neither possible for the shipped routers), degrades to
            // an accounted kill.
            let target = match route {
                Route::Channel(ch) => Some((net.channel(ch).station, u16::MAX)),
                Route::Bundle(st, m) => {
                    debug_assert_ne!(m, 0, "bundle route with no allowed member");
                    Some((st, m))
                }
                Route::Unreachable => None,
            };
            let Some((station, mask)) = target.filter(|&(st, _)| net.station(st).node == node)
            else {
                self.kill_worm(widx, t);
                continue;
            };
            if let Some(o) = self.obs.as_deref_mut() {
                let queued_behind = !self.station_queue[station.index()].is_empty();
                o.on_route_chosen(widx as usize, t, station.index() as u32, queued_behind);
            }
            let w = &mut self.worms[widx as usize];
            w.state = WormState::Queued;
            w.request_time = t;
            w.route_mask = mask;
            self.station_queue[station.index()].push_back(widx);
            self.mark_station_ready(station);
        }
        self.pending_requests = pending;

        // Phase 2: grants.
        let mut i = 0;
        while i < self.ready_stations.len() {
            let st = self.ready_stations[i];
            let mut exhausted_free = false;
            // FCFS: the queue head's member mask (all-ones for a channel
            // route) restricts which members it may be granted; a head
            // whose allowed members are all busy blocks the queue exactly
            // like an exhausted station (its allowed members are alive by
            // construction, so a release re-arms the station — no hang).
            while let Some(&head_worm) = self.station_queue[st.index()].front() {
                let wmask = self.worms[head_worm as usize].route_mask;
                // Collect member channels with a free lane. A channel with
                // several free lanes still counts once — the random pick is
                // over physical channels (the paper's up-link rule), the
                // lane within it is the lowest free one.
                let members = &self.router.network().station(st).channels;
                self.free_members.clear();
                for (pos, &ch) in members.iter().enumerate() {
                    if !member_allowed(wmask, pos) {
                        continue;
                    }
                    if self.lane_table.has_free(ch.index()) {
                        self.free_members.push(ch);
                    }
                }
                let n_free = self.free_members.len();
                if n_free == 0 {
                    exhausted_free = true;
                    break;
                }
                let pick = if n_free == 1 {
                    0
                } else {
                    self.rng.gen_range(0..n_free)
                };
                let ch = self.free_members[pick];
                let lane = self
                    .lane_table
                    .allocate(ch.index())
                    .expect("free member has a free lane");
                let widx = self.station_queue[st.index()]
                    .pop_front()
                    .expect("non-empty");
                debug_assert_eq!(widx, head_worm, "grant goes to the FCFS head");
                let slot = self.lane_slot(ch, lane);
                self.lane_holder[slot] = widx;
                self.lane_grant_time[slot] = t;
                // Wait statistics: source-queue wait for injections
                // (measured from generation, the paper's W₀,₁), else from
                // the request at head arrival.
                let (wait, measured_grant) = {
                    let w = &self.worms[widx as usize];
                    let injecting = self.paths[widx as usize].is_empty();
                    let anchor = if injecting {
                        w.gen_time
                    } else {
                        w.request_time
                    };
                    (t - anchor, injecting && w.measured)
                };
                if t >= self.window_start && t < self.window_end {
                    self.audit
                        .record_grant(self.channel_class_idx[ch.index()] as usize, wait);
                    self.lane_audit.record_grant(lane);
                }
                if measured_grant {
                    self.injection_wait.add(wait as f64);
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_grant(widx as usize, t, ch.index(), lane);
                }
                self.granted.push((widx, ch, lane));
            }
            // Keep the ready flag only if blocked on channels (a release
            // will re-arm); a station left with an empty queue re-arms on
            // the next enqueue.
            if exhausted_free {
                if let Some(o) = self.obs.as_deref_mut() {
                    if let Some(&head) = self.station_queue[st.index()].front() {
                        o.on_stall(head as usize, t, StallCause::NoFreeLane);
                    }
                }
            }
            self.station_ready[st.index()] = false;
            i += 1;
        }
        self.ready_stations.clear();

        // Phase 3: drain advancement for worms already draining. With
        // multiple lanes a drainer needs this cycle's flit slot on every
        // channel of its moving span; a denied drainer holds all flits and
        // stays in the list (drainers have first claim on bandwidth).
        // Dormant drainers are passed over until they wake.
        let mut j = 0;
        while j < self.drain_list.len() {
            let widx = self.drain_list[j];
            let wake = self.worms[widx as usize].wake;
            if wake > t {
                j += 1;
                continue;
            }
            if wake == t {
                self.observe_dormant(widx, t);
            }
            if !self.try_reserve_span(widx, t) {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_stall(widx as usize, t, StallCause::LinkBusy);
                }
                j += 1;
                continue;
            }
            self.worms[widx as usize].advancements += 1;
            self.observe_advance(widx, t);
            self.release_tail(widx, t);
            let done = {
                let w = &self.worms[widx as usize];
                w.advancements as usize
                    == self.paths[widx as usize].len() + w.len_flits as usize - 1
            };
            if done {
                self.drain_list.swap_remove(j);
                self.finalize(widx, t);
            } else {
                j += 1;
            }
        }

        // Phase 3b: worms stalled in an earlier cycle retry their pending
        // advancement (FCFS — the order-preserving compaction keeps the
        // longest-stalled worm first in every later contention round).
        // Runs after the drain loop so a worm whose retry ejects it joins
        // `drain_list` for the *next* cycle, never advancing twice in one.
        // Empty whenever `L = 1`. (`complete_advance` never touches the
        // stall list, so taking it for the sweep is safe.)
        let mut stalled = std::mem::take(&mut self.stall_list);
        let mut kept = 0;
        for k in 0..stalled.len() {
            let widx = stalled[k];
            if self.try_reserve_span(widx, t) {
                self.complete_advance(widx, t);
            } else {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_stall(widx as usize, t, StallCause::LinkBusy);
                }
                stalled[kept] = widx;
                kept += 1;
            }
        }
        stalled.truncate(kept);
        self.stall_list = stalled;

        // Phase 4: advancement for worms granted this cycle.
        let mut granted = std::mem::take(&mut self.granted);
        for &(widx, ch, lane) in &granted {
            let first_hop = {
                let path = &mut self.paths[widx as usize];
                path.push(Hop { ch, lane });
                path.len() == 1
            };
            if first_hop {
                // Injection lane granted: the PE may stage its next
                // message (it will request from the next cycle and, with
                // several lanes, can overlap worms on the same channel).
                let pe = self.worms[widx as usize].src as usize;
                self.sources[pe].worm_waiting = false;
                if !self.sources[pe].pending.is_empty() {
                    self.activate_source(pe, true);
                }
            }
            if self.try_reserve_span(widx, t) {
                self.complete_advance(widx, t);
            } else {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_stall(widx as usize, t, StallCause::LinkBusy);
                }
                self.worms[widx as usize].state = WormState::Stalled;
                self.stall_list.push(widx);
            }
        }
        granted.clear();
        self.granted = granted;

        // Stage next cycle's requests.
        std::mem::swap(&mut self.pending_requests, &mut self.next_pending);
        debug_assert!(self.next_pending.is_empty());

        let active = self.worms.len() - self.free_worms.len();
        self.max_active_worms = self.max_active_worms.max(active);

        self.now += 1;
    }

    /// Total messages generated but not yet fully delivered. Unroutable
    /// messages were generated but will never deliver — excluding them
    /// keeps the saturation detector's backlog-growth signal meaningful
    /// on a partitioned fabric.
    fn backlog(&self) -> u64 {
        self.generated_total - self.completed_total - self.unroutable_total
    }

    /// Runs warmup, measurement and drain; returns the aggregated result.
    #[must_use]
    pub fn run(mut self) -> SimResult {
        let net = self.router.network();
        let n_pe = net.num_processors() as f64;

        while self.now < self.window_end {
            if self.now == self.window_start {
                self.backlog_at_window_start = self.backlog();
            }
            // Skips are clamped at the window boundaries so the bookkeeping
            // above (and the loop condition) observe the same cycle numbers
            // as the reference engine; `continue` re-checks them after a
            // jump. Nothing observable changes across an idle span, so the
            // recorded values are identical either way.
            let limit = if self.now < self.window_start {
                self.window_start
            } else {
                self.window_end
            };
            if self.skip_idle(limit) {
                continue;
            }
            self.step();
        }
        self.backlog_at_window_end = self.backlog();

        // Drain: let measured messages finish (traffic keeps flowing so the
        // tail is not artificially unloaded).
        let deadline = self.window_end + self.cfg.drain_cap_cycles;
        while self.outstanding_measured > 0 && self.now < deadline {
            if self.skip_idle(deadline) {
                continue;
            }
            self.step();
        }

        let incomplete = self.outstanding_measured;
        let backlog_growth = self
            .backlog_at_window_end
            .saturating_sub(self.backlog_at_window_start);
        let growth_threshold = 20.0 + 0.05 * self.generated_in_window as f64;
        let saturated = incomplete > 0 || (backlog_growth as f64) > growth_threshold;

        // Throughput = completions inside the window; completions during
        // the drain must not count or a saturated run would report
        // near-offered throughput.
        let delivered_flit_load = self.completed_in_window as f64
            * f64::from(self.traffic.worm_flits)
            / (self.cfg.measure_cycles as f64 * n_pe);

        // Drainers whose wake was never walked owe the flits of the steps
        // the reference walk took before `now`.
        for j in 0..self.drain_list.len() {
            let widx = self.drain_list[j];
            if self.worms[widx as usize].wake >= self.now {
                self.observe_dormant(widx, self.now);
            }
        }
        let obs = self.obs.take().map(|o| {
            // Worms still in flight keep their granted lanes; count their
            // hops so the grant-vs-hop conservation law closes exactly.
            let mut inflight_hops = 0u64;
            for (wi, w) in self.worms.iter().enumerate() {
                if w.state != WormState::Free {
                    inflight_hops += self.paths[wi].len() as u64;
                }
            }
            let snap = o.finish(self.now, inflight_hops);
            debug_assert!(
                snap.check_conservation().is_ok(),
                "obs conservation: {:?}",
                snap.check_conservation()
            );
            snap
        });

        let mut sample = self.latency_sample;
        SimResult {
            topology: self.router.label(),
            num_processors: net.num_processors(),
            worm_flits: self.traffic.worm_flits,
            lanes: self.lane_table.lanes(),
            lane_stats: self
                .lane_audit
                .finish(self.cfg.measure_cycles, net.num_channels()),
            offered_message_rate: self.traffic.message_rate,
            offered_flit_load: self.traffic.flit_load(),
            avg_latency: self.latency.mean(),
            latency_ci95: self.latency.ci95_half_width(),
            latency_p50: sample.quantile(0.50),
            latency_p95: sample.quantile(0.95),
            latency_p99: sample.quantile(0.99),
            latency_max: sample.max(),
            injection_wait_mean: self.injection_wait.mean(),
            messages_measured: self.generated_in_window,
            messages_completed: self.completed_measured,
            messages_incomplete: incomplete,
            messages_unroutable: self.unroutable_in_window,
            delivered_flit_load,
            saturated,
            backlog_growth,
            cycles_run: self.now,
            cycles_skipped: self.cycles_skipped,
            engine: self.kind,
            max_active_worms: self.max_active_worms,
            class_stats: self.audit.finish(self.cfg.measure_cycles),
            seed: self.cfg.seed,
            obs,
        }
    }

    /// Steps the engine `cycles` times without any measurement bookkeeping
    /// beyond the internal counters (used by white-box tests).
    pub fn step_many(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Current cycle (white-box accessor for tests).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Messages generated so far (white-box accessor for tests).
    #[must_use]
    pub fn generated_total(&self) -> u64 {
        self.generated_total
    }

    /// Messages fully delivered so far (white-box accessor for tests).
    #[must_use]
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Invariant checker used by tests: every held lane's holder exists and
    /// holds it on its path, lane occupancy is conserved (each live worm's
    /// unreleased hops hold exactly their lanes, and nothing else is held
    /// — no lane double-grant, no leaked lane), each live worm's path is a
    /// walk from its source's injection channel that can only end at its
    /// destination, every queued worm appears in exactly one queue, every
    /// stalled worm in the stall list, and every dormant drainer sits at
    /// advancement `s − 1`.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let net = self.router.network();
        let lanes = self.lane_table.lanes() as usize;
        for (slot, &holder) in self.lane_holder.iter().enumerate() {
            let (ci, lane) = (slot / lanes, (slot % lanes) as u16);
            if holder == DEAD_WORM {
                // Fault-killed lane: permanently occupied by the sentinel.
                if self.lane_table.is_free(ci, lane) {
                    return Err(format!("dead channel {ci} lane {lane} free in lane table"));
                }
                continue;
            }
            if holder != NO_WORM {
                let w = &self.worms[holder as usize];
                if w.state == WormState::Free {
                    return Err(format!(
                        "channel {ci} lane {lane} held by freed worm {holder}"
                    ));
                }
                if !self.paths[holder as usize]
                    .iter()
                    .any(|h| h.ch.index() == ci && h.lane == lane)
                {
                    return Err(format!(
                        "channel {ci} lane {lane} not on holder {holder}'s path"
                    ));
                }
                if self.lane_table.is_free(ci, lane) {
                    return Err(format!("held channel {ci} lane {lane} free in lane table"));
                }
            } else if !self.lane_table.is_free(ci, lane) {
                return Err(format!(
                    "unheld channel {ci} lane {lane} busy in lane table"
                ));
            }
        }
        // Conservation across lanes: a live worm's hop `i` is released iff
        // `advancements ≥ len_flits + i` (its tail flit passed it), so the
        // held hops must hold exactly their recorded lanes — summed over
        // worms this pins total lane occupancy to total in-flight
        // worm-hops.
        for (wi, w) in self.worms.iter().enumerate() {
            if w.state == WormState::Free {
                continue;
            }
            // The path is a walk: hop 0 is the source's injection channel,
            // each later hop leaves the node the previous one enters, and
            // a path that reaches a processor reaches the destination.
            let path = &self.paths[wi];
            if let Some(first) = path.first() {
                let inject = net.processors()[w.src as usize].inject;
                if first.ch != inject {
                    return Err(format!(
                        "worm {wi} starts on {}, not PE {}'s injection {inject}",
                        first.ch, w.src
                    ));
                }
            }
            for (i, pair) in path.windows(2).enumerate() {
                let (enters, leaves) = (net.channel(pair[0].ch).dst, net.channel(pair[1].ch).src);
                if leaves != enters {
                    return Err(format!(
                        "worm {wi}'s hop {} leaves {leaves}, not {enters} where hop {i} ends",
                        i + 1
                    ));
                }
            }
            if let Some(last) = path.last() {
                if let NodeKind::Processor { index } = net.node(net.channel(last.ch).dst).kind {
                    if index != w.dest as usize {
                        return Err(format!(
                            "worm {wi} for PE {} delivered to PE {index}",
                            w.dest
                        ));
                    }
                }
            }
            for (i, hop) in path.iter().enumerate() {
                let released = w.advancements as usize >= w.len_flits as usize + i;
                let holder = self.lane_holder[hop.ch.index() * lanes + hop.lane as usize];
                if released && holder == wi as WormIdx {
                    return Err(format!("worm {wi} still holds released hop {i}"));
                }
                if !released && holder != wi as WormIdx {
                    return Err(format!("worm {wi} lost unreleased hop {i}"));
                }
            }
        }
        let mut seen = vec![0u32; self.worms.len()];
        for q in &self.station_queue {
            for &w in q {
                seen[w as usize] += 1;
                if self.worms[w as usize].state != WormState::Queued {
                    return Err(format!("worm {w} in queue but not Queued"));
                }
            }
        }
        for &w in &self.stall_list {
            if self.worms[w as usize].state != WormState::Stalled {
                return Err(format!("worm {w} in stall list but not Stalled"));
            }
        }
        for (wi, w) in self.worms.iter().enumerate() {
            match w.state {
                WormState::Queued => {
                    if seen[wi] != 1 {
                        return Err(format!("queued worm {wi} in {} queues", seen[wi]));
                    }
                }
                _ => {
                    if seen[wi] != 0 {
                        return Err(format!("non-queued worm {wi} in a queue"));
                    }
                }
            }
            if w.state == WormState::Stalled && !self.stall_list.contains(&(wi as WormIdx)) {
                return Err(format!("stalled worm {wi} missing from the stall list"));
            }
            // A dormant drainer has taken every step before its tail's
            // first release (so it still holds every hop, checked above).
            if w.state == WormState::Draining
                && w.wake > self.now
                && w.advancements + 1 != w.len_flits
            {
                return Err(format!(
                    "dormant drainer {wi} at advancement {} of a {}-flit worm",
                    w.advancements, w.len_flits
                ));
            }
            if w.state == WormState::Draining
                && self.paths[wi]
                    .last()
                    .map(|h| net.channel(h.ch).dst)
                    .map(|n| !matches!(net.node(n).kind, NodeKind::Processor { .. }))
                    == Some(true)
            {
                return Err(format!(
                    "draining worm {wi} whose path does not end at a PE"
                ));
            }
        }
        Ok(())
    }
}
