//! Windowed time-series accounting: the time dimension of the observer.
//!
//! The run is divided into fixed-width cycle windows (`window_cycles`
//! each); window `k` covers cycles `[k·W, (k+1)·W)`. Per window the
//! sampler keeps injected/delivered/unroutable worm counts, the summed
//! delivered latency, the channel-summed busy and union-held cycles
//! (same union-of-occupancy scheme as the run totals, clipped to window
//! boundaries), and the in-flight worm count at the window's end.
//!
//! # Exactness across engine cores
//!
//! The sampler is driven entirely by the existing `SimTrace` hooks and
//! never draws RNG or alters control flow, so it is bit-transparent like
//! the rest of the observer. The subtle requirement is that both engine
//! cores deliver the *same* per-window numbers even though they walk
//! different cycles:
//!
//! * Fast-forwarded idle spans contain no events and no occupancy, so
//!   the windows they cover are all-zero on either core by construction.
//! * Union-of-occupancy held intervals close retroactively (at release
//!   time the interval extends back to its 0→1 edge); they are clipped
//!   across every window they overlap.
//! * The in-flight sample for a completed window is taken when the
//!   *frontier* (latest hook timestamp) first passes the window's end.
//!   Only lifecycle hooks advance the frontier; busy attribution
//!   (`on_flit`) never does, so sampling points, and therefore sampled
//!   values, are core-independent.
//!
//! # Ring-buffer storage
//!
//! At most `max_windows` windows are held; older windows are evicted
//! into a single aggregate ([`TimeSeriesResult::evicted`]) so the
//! conservation laws (Σ per-window = run totals) stay exact even when
//! the ring wraps.

use std::collections::VecDeque;

/// Configuration for the windowed [`TimeSeries`] sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Width of each window in cycles (≥ 1).
    pub window_cycles: u64,
    /// Maximum number of windows retained; older windows are evicted
    /// into the aggregate. Default 65 536.
    pub max_windows: usize,
}

impl TimeSeriesConfig {
    /// Windows of `window_cycles` cycles (clamped to ≥ 1) with the
    /// default retention.
    pub fn new(window_cycles: u64) -> Self {
        TimeSeriesConfig {
            window_cycles: window_cycles.max(1),
            max_windows: 1 << 16,
        }
    }

    /// Same config with a different retention cap (clamped to ≥ 1).
    pub fn with_max_windows(mut self, max_windows: usize) -> Self {
        self.max_windows = max_windows.max(1);
        self
    }
}

/// One window's worth of accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Global window index: the window covers cycles
    /// `[index·W, (index+1)·W)`.
    pub index: u64,
    /// Worms injected in this window.
    pub injected: u64,
    /// Worms delivered in this window.
    pub delivered: u64,
    /// Messages that became unroutable (dropped or killed) in this window.
    pub unroutable: u64,
    /// Σ end-to-end latency over worms delivered in this window.
    pub latency_sum: u64,
    /// Σ over channels of cycles in this window in which a flit crossed.
    pub busy_cycles: u64,
    /// Σ over channels of union-occupancy cycles in this window.
    pub held_cycles: u64,
    /// Worms in flight when the window ended.
    pub in_flight_at_end: u64,
}

impl WindowStats {
    /// First cycle covered by this window.
    pub fn start_cycle(&self, window_cycles: u64) -> u64 {
        self.index * window_cycles
    }

    /// Mean latency of worms delivered in this window (`None` when none).
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum as f64 / self.delivered as f64)
    }

    /// Channel-cycles held but not transmitting in this window.
    pub fn stalled_cycles(&self) -> u64 {
        self.held_cycles.saturating_sub(self.busy_cycles)
    }

    fn absorb(&mut self, other: &WindowStats) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.unroutable += other.unroutable;
        self.latency_sum += other.latency_sum;
        self.busy_cycles += other.busy_cycles;
        self.held_cycles += other.held_cycles;
    }
}

/// The live windowed sampler, owned by `SimTrace` when
/// `ObsConfig::time_series` is set.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_cycles: u64,
    max_windows: usize,
    num_channels: usize,
    /// Retained windows, contiguous in index; `windows[0].index == base`.
    windows: VecDeque<WindowStats>,
    base: u64,
    /// Global index of the next window whose end-of-window in-flight
    /// sample has not been taken yet.
    sampled: u64,
    in_flight: u64,
    evicted_windows: u64,
    evicted: WindowStats,
}

impl TimeSeries {
    /// A sampler for a network with `num_channels` physical channels.
    pub fn new(num_channels: usize, cfg: &TimeSeriesConfig) -> Self {
        TimeSeries {
            window_cycles: cfg.window_cycles.max(1),
            max_windows: cfg.max_windows.max(1),
            num_channels,
            windows: VecDeque::new(),
            base: 0,
            sampled: 0,
            in_flight: 0,
            evicted_windows: 0,
            evicted: WindowStats::default(),
        }
    }

    fn window_index(&self, t: u64) -> u64 {
        t / self.window_cycles
    }

    /// Extend the ring so window `index` exists, evicting from the front
    /// into the aggregate as the cap is hit. `index ≥ self.base` required.
    fn grow_to(&mut self, index: u64) {
        while self.base + self.windows.len() as u64 <= index {
            let next = self.base + self.windows.len() as u64;
            if self.windows.len() == self.max_windows {
                if let Some(front) = self.windows.pop_front() {
                    self.evicted.absorb(&front);
                    self.evicted_windows += 1;
                    self.base += 1;
                }
            }
            self.windows.push_back(WindowStats {
                index: next,
                ..WindowStats::default()
            });
        }
    }

    /// Apply `f` to window `index`, or to the evicted aggregate when
    /// that window has already been evicted.
    fn apply(&mut self, index: u64, f: impl FnOnce(&mut WindowStats)) {
        if index < self.base {
            f(&mut self.evicted);
            return;
        }
        self.grow_to(index);
        let slot = (index - self.base) as usize;
        if let Some(w) = self.windows.get_mut(slot) {
            f(w);
        }
    }

    /// Advance the frontier to `t`, taking the end-of-window in-flight
    /// sample for every window that ends at or before `t`. Called from
    /// every lifecycle hook — and *not* from busy attribution (see the
    /// module docs).
    pub fn record_event(&mut self, t: u64) {
        let frontier = self.window_index(t);
        while self.sampled < frontier {
            let inflight = self.in_flight;
            let idx = self.sampled;
            self.apply(idx, |w| w.in_flight_at_end = inflight);
            self.sampled += 1;
        }
    }

    /// A worm was injected at `t`.
    pub fn record_inject(&mut self, t: u64) {
        self.record_event(t);
        self.in_flight += 1;
        let idx = self.window_index(t);
        self.apply(idx, |w| w.injected += 1);
    }

    /// A worm was delivered at `t` with end-to-end `latency`.
    pub fn record_deliver(&mut self, t: u64, latency: u64) {
        self.record_event(t);
        self.in_flight = self.in_flight.saturating_sub(1);
        let idx = self.window_index(t);
        self.apply(idx, |w| {
            w.delivered += 1;
            w.latency_sum += latency;
        });
    }

    /// A message was dropped before injection at `t` (unroutable).
    pub fn record_unroutable(&mut self, t: u64) {
        self.record_event(t);
        let idx = self.window_index(t);
        self.apply(idx, |w| w.unroutable += 1);
    }

    /// An in-flight worm was defensively killed at `t`.
    pub fn record_kill(&mut self, t: u64) {
        self.record_event(t);
        self.in_flight = self.in_flight.saturating_sub(1);
        let idx = self.window_index(t);
        self.apply(idx, |w| w.unroutable += 1);
    }

    /// One flit per cycle crossed some channel over `[start, start+span)`;
    /// split exactly at window boundaries (the engine walk reports
    /// `span == 1`). Deliberately does not advance the frontier (see
    /// module docs).
    pub fn add_busy_span(&mut self, start: u64, span: u64) {
        self.add_span(start, span, |w, take| w.busy_cycles += take);
    }

    /// A channel's union-occupancy interval `[start, end]` (inclusive)
    /// closed; clip it across every window it overlaps.
    pub fn add_held_interval(&mut self, start: u64, end_inclusive: u64) {
        if end_inclusive < start {
            return;
        }
        self.add_span(start, end_inclusive - start + 1, |w, take| {
            w.held_cycles += take;
        });
    }

    fn add_span(&mut self, mut start: u64, mut span: u64, bump: impl Fn(&mut WindowStats, u64)) {
        while span > 0 {
            let idx = start / self.window_cycles;
            let window_end = (idx + 1) * self.window_cycles;
            let take = span.min(window_end - start);
            self.apply(idx, |w| bump(w, take));
            start += take;
            span -= take;
        }
    }

    /// Close the series at cycle `cycles_run`: the final (possibly
    /// partial) window gets the end-of-run in-flight sample.
    pub fn finish(mut self, cycles_run: u64) -> TimeSeriesResult {
        let last = if cycles_run == 0 {
            0
        } else {
            self.window_index(cycles_run - 1)
        };
        let inflight = self.in_flight;
        for idx in self.sampled..=last {
            self.apply(idx, |w| w.in_flight_at_end = inflight);
        }
        TimeSeriesResult {
            window_cycles: self.window_cycles,
            num_channels: self.num_channels,
            cycles: cycles_run,
            windows: self.windows.into_iter().collect(),
            evicted_windows: self.evicted_windows,
            evicted: self.evicted,
        }
    }
}

/// Finished time series, carried by `SimSnapshot::time_series`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeriesResult {
    /// Width of each window in cycles.
    pub window_cycles: u64,
    /// Physical channels in the observed network (denominator of the
    /// per-window busy/stall fractions).
    pub num_channels: usize,
    /// Total cycles the run covered.
    pub cycles: u64,
    /// Retained windows, contiguous and in increasing index order.
    /// `windows[0].index > 0` exactly when the ring evicted.
    pub windows: Vec<WindowStats>,
    /// Number of windows evicted into [`TimeSeriesResult::evicted`].
    pub evicted_windows: u64,
    /// Aggregate of all evicted windows (index field unused), so totals
    /// stay exact under eviction.
    pub evicted: WindowStats,
}

impl TimeSeriesResult {
    /// Cycles actually covered by window `w` (the last window may be cut
    /// short by the end of the run).
    pub fn window_span(&self, w: &WindowStats) -> u64 {
        let start = w.index * self.window_cycles;
        let end = ((w.index + 1) * self.window_cycles).min(self.cycles.max(start));
        end - start
    }

    /// Delivered throughput of window `w` in worms per cycle.
    pub fn throughput(&self, w: &WindowStats) -> f64 {
        let span = self.window_span(w);
        if span == 0 {
            0.0
        } else {
            w.delivered as f64 / span as f64
        }
    }

    /// Mean per-channel busy fraction of window `w`.
    pub fn busy_fraction(&self, w: &WindowStats) -> f64 {
        let denom = self.window_span(w) * self.num_channels as u64;
        if denom == 0 {
            0.0
        } else {
            w.busy_cycles as f64 / denom as f64
        }
    }

    /// Mean per-channel held-but-stalled fraction of window `w`.
    pub fn stall_fraction(&self, w: &WindowStats) -> f64 {
        let denom = self.window_span(w) * self.num_channels as u64;
        if denom == 0 {
            0.0
        } else {
            w.stalled_cycles() as f64 / denom as f64
        }
    }

    /// Σ injected over all windows, including the evicted aggregate.
    pub fn total_injected(&self) -> u64 {
        self.evicted.injected + self.windows.iter().map(|w| w.injected).sum::<u64>()
    }

    /// Σ delivered over all windows, including the evicted aggregate.
    pub fn total_delivered(&self) -> u64 {
        self.evicted.delivered + self.windows.iter().map(|w| w.delivered).sum::<u64>()
    }

    /// Σ unroutable over all windows, including the evicted aggregate.
    pub fn total_unroutable(&self) -> u64 {
        self.evicted.unroutable + self.windows.iter().map(|w| w.unroutable).sum::<u64>()
    }

    /// Σ delivered latency over all windows, including the evicted aggregate.
    pub fn total_latency_sum(&self) -> u64 {
        self.evicted.latency_sum + self.windows.iter().map(|w| w.latency_sum).sum::<u64>()
    }

    /// Σ busy channel-cycles over all windows, including the evicted
    /// aggregate.
    pub fn total_busy_cycles(&self) -> u64 {
        self.evicted.busy_cycles + self.windows.iter().map(|w| w.busy_cycles).sum::<u64>()
    }

    /// Σ held channel-cycles over all windows, including the evicted
    /// aggregate.
    pub fn total_held_cycles(&self) -> u64 {
        self.evicted.held_cycles + self.windows.iter().map(|w| w.held_cycles).sum::<u64>()
    }

    /// Σ stalled channel-cycles over all windows, including the evicted
    /// aggregate.
    pub fn total_stalled_cycles(&self) -> u64 {
        self.total_held_cycles()
            .saturating_sub(self.total_busy_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(w: u64) -> TimeSeriesConfig {
        TimeSeriesConfig::new(w)
    }

    #[test]
    fn spans_split_exactly_at_window_boundaries() {
        let mut ts = TimeSeries::new(2, &cfg(10));
        // A 25-cycle busy span starting at cycle 5 covers windows
        // 0 (5 cycles), 1 (10), 2 (10).
        ts.add_busy_span(5, 25);
        let r = ts.finish(30);
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].busy_cycles, 5);
        assert_eq!(r.windows[1].busy_cycles, 10);
        assert_eq!(r.windows[2].busy_cycles, 10);
        assert_eq!(r.total_busy_cycles(), 25);
    }

    #[test]
    fn batched_span_equals_per_cycle_attribution() {
        let mut batched = TimeSeries::new(1, &cfg(7));
        batched.add_busy_span(3, 20);
        let mut walked = TimeSeries::new(1, &cfg(7));
        for t in 3..23 {
            walked.add_busy_span(t, 1);
        }
        assert_eq!(batched.finish(23), walked.finish(23));
    }

    #[test]
    fn held_intervals_clip_retroactively() {
        let mut ts = TimeSeries::new(1, &cfg(10));
        // Frontier passes window 0 before its held interval closes.
        ts.record_inject(2);
        ts.record_deliver(27, 25);
        ts.add_held_interval(2, 27); // closes at t=27, reaches back to 2
        let r = ts.finish(30);
        assert_eq!(r.windows[0].held_cycles, 8); // [2,9]
        assert_eq!(r.windows[1].held_cycles, 10); // [10,19]
        assert_eq!(r.windows[2].held_cycles, 8); // [20,27]
        assert_eq!(r.total_held_cycles(), 26);
    }

    #[test]
    fn in_flight_sampled_at_window_ends() {
        let mut ts = TimeSeries::new(1, &cfg(10));
        ts.record_inject(1);
        ts.record_inject(4);
        ts.record_deliver(12, 11); // window 0 ended with 2 in flight
        ts.record_inject(25); // window 1 ended with 1 in flight
        let r = ts.finish(30);
        assert_eq!(r.windows[0].in_flight_at_end, 2);
        assert_eq!(r.windows[1].in_flight_at_end, 1);
        assert_eq!(r.windows[2].in_flight_at_end, 2); // end of run
        assert_eq!(r.windows[0].injected, 2);
        assert_eq!(r.windows[1].delivered, 1);
        assert_eq!(r.windows[1].latency_sum, 11);
    }

    #[test]
    fn eviction_preserves_totals() {
        let mut ts = TimeSeries::new(1, &cfg(10).with_max_windows(2));
        for t in [5u64, 15, 25, 35, 45] {
            ts.record_inject(t);
            ts.record_deliver(t + 1, 1);
        }
        ts.add_busy_span(0, 50);
        // A held interval reaching back into evicted windows still counts.
        ts.add_held_interval(0, 49);
        let r = ts.finish(50);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.evicted_windows, 3);
        assert_eq!(r.windows[0].index, 3);
        assert_eq!(r.total_injected(), 5);
        assert_eq!(r.total_delivered(), 5);
        assert_eq!(r.total_busy_cycles(), 50);
        assert_eq!(r.total_held_cycles(), 50);
    }

    #[test]
    fn partial_last_window_uses_actual_span() {
        let mut ts = TimeSeries::new(4, &cfg(10));
        ts.record_inject(0);
        ts.record_deliver(13, 13);
        let r = ts.finish(15);
        let last = r.windows[1];
        assert_eq!(r.window_span(&last), 5);
        assert_eq!(r.throughput(&last), 1.0 / 5.0);
        assert_eq!(r.windows.len(), 2);
    }

    #[test]
    fn idle_gaps_produce_contiguous_zero_windows() {
        let mut ts = TimeSeries::new(1, &cfg(10));
        ts.record_inject(5);
        ts.record_deliver(6, 1);
        ts.record_inject(95);
        ts.record_deliver(96, 1);
        let r = ts.finish(100);
        assert_eq!(r.windows.len(), 10);
        for w in &r.windows[1..9] {
            assert_eq!(w.injected, 0);
            assert_eq!(w.in_flight_at_end, 0);
        }
        let indices: Vec<u64> = r.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn unroutable_and_kill_accounting() {
        let mut ts = TimeSeries::new(1, &cfg(10));
        ts.record_unroutable(3); // dropped pre-injection: no in-flight change
        ts.record_inject(4);
        ts.record_kill(15); // killed in flight
        let r = ts.finish(20);
        assert_eq!(r.windows[0].unroutable, 1);
        assert_eq!(r.windows[1].unroutable, 1);
        assert_eq!(r.windows[0].in_flight_at_end, 1);
        assert_eq!(r.windows[1].in_flight_at_end, 0);
        assert_eq!(r.total_unroutable(), 2);
    }
}
