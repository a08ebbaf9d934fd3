//! Message sources on a continuous clock: Poisson or MMPP-modulated.
//!
//! Every PE owns an inter-arrival stream; all streams are merged through a
//! binary heap keyed by next-arrival time, so the per-cycle cost is
//! `O(arrivals·log N)` rather than `O(N)` — at the paper's loads
//! (≤ 0.003 messages/cycle/PE) that is a few heap operations per cycle even
//! for 1024 processors.
//!
//! Destinations are sampled from the workload's
//! [`DestinationPattern`]; inter-arrival times from its
//! [`ArrivalProcess`]: plain exponentials for Poisson, or a per-PE
//! two-state phase process for MMPP (each PE alternates ON/OFF phases with
//! exponential dwells, drawing exponential arrival gaps at the phase's
//! rate — the standard competing-clocks simulation of an MMPP).

use crate::config::{ArrivalProcess, DestinationPattern, TrafficConfig};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A generated message: destination and generation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Source PE index.
    pub src: usize,
    /// Destination PE index (≠ src for the supported patterns).
    pub dest: usize,
    /// Cycle at which the message becomes available for injection.
    pub cycle: u64,
}

/// Heap entry: next arrival time of one PE (min-heap by time).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    time: f64,
    pe: usize,
}

impl Eq for Pending {}

impl Ord for Pending {
    // Arrival times are finite by construction, so `partial_cmp` is total.
    // Ordering runs on every heap operation — kept as an expect.
    #[allow(clippy::expect_used)]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; times are finite by construction, and ties
        // break on the PE index for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("arrival times are never NaN")
            .then_with(|| other.pe.cmp(&self.pe))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-PE MMPP phase state: the current phase and when it ends.
#[derive(Debug, Clone, Copy)]
struct Phase {
    on: bool,
    /// Real time at which the current phase's dwell expires.
    until: f64,
}

/// Merged message sources for all PEs.
#[derive(Debug)]
pub struct TrafficGenerator {
    /// Next arrival time of every PE, popped in ascending `(time, pe)`
    /// order — arrivals consume randomness in pop order (destination
    /// sample, then the next inter-arrival gap).
    queue: BinaryHeap<Pending>,
    num_pes: usize,
    rate: f64,
    pattern: DestinationPattern,
    arrival: ArrivalProcess,
    /// MMPP phase state per PE; empty for Poisson sources.
    phases: Vec<Phase>,
}

impl TrafficGenerator {
    /// Creates sources for `num_pes` PEs with the given traffic config.
    /// A zero rate produces no arrivals at all.
    ///
    /// # Panics
    ///
    /// Panics when `num_pes < 2` or the destination pattern cannot address
    /// this machine (see `DestinationPattern::validate`).
    #[must_use]
    // Documented # Panics contract; the batch runners (`sweep_traffic`,
    // `find_saturation`) validate the pattern up front and
    // return a typed error, so this fires only on a single run or a direct
    // engine build with a pattern that does not fit.
    #[allow(clippy::expect_used)]
    pub fn new(num_pes: usize, traffic: &TrafficConfig, rng: &mut SmallRng) -> Self {
        assert!(num_pes >= 2, "traffic needs at least two PEs");
        traffic
            .pattern
            .validate(num_pes)
            .expect("destination pattern must fit the machine");
        let mut gen = Self {
            queue: BinaryHeap::with_capacity(num_pes),
            num_pes,
            rate: traffic.message_rate,
            pattern: traffic.pattern,
            arrival: traffic.arrival,
            phases: Vec::new(),
        };
        if traffic.message_rate > 0.0 {
            if let ArrivalProcess::Mmpp(profile) = traffic.arrival {
                // Start each PE in its stationary phase distribution.
                gen.phases = (0..num_pes)
                    .map(|_| {
                        let on = rng.gen::<f64>() < profile.duty();
                        let dwell = if on {
                            profile.mean_on_cycles()
                        } else {
                            profile.mean_off_cycles()
                        };
                        Phase {
                            on,
                            until: exponential(rng, 1.0 / dwell),
                        }
                    })
                    .collect();
            }
            for pe in 0..num_pes {
                let time = gen.next_arrival_time(pe, 0.0, rng);
                gen.queue.push(Pending { time, pe });
            }
        }
        gen
    }

    /// Samples the next arrival time of `pe` strictly after `from`.
    fn next_arrival_time(&mut self, pe: usize, from: f64, rng: &mut SmallRng) -> f64 {
        match self.arrival {
            ArrivalProcess::Poisson => from + exponential(rng, self.rate),
            ArrivalProcess::Mmpp(profile) => {
                let (rate_on, rate_off) = profile.phase_rates(self.rate);
                let mut t = from;
                let phase = &mut self.phases[pe];
                loop {
                    let rate = if phase.on { rate_on } else { rate_off };
                    // Candidate arrival inside the current phase, if the
                    // phase's rate admits one.
                    if rate > 0.0 {
                        let cand = t + exponential(rng, rate);
                        if cand < phase.until {
                            return cand;
                        }
                    }
                    // Dwell expired first: switch phase and keep sampling
                    // (memorylessness makes restarting at the boundary
                    // exact).
                    t = phase.until;
                    phase.on = !phase.on;
                    let dwell = if phase.on {
                        profile.mean_on_cycles()
                    } else {
                        profile.mean_off_cycles()
                    };
                    phase.until = t + exponential(rng, 1.0 / dwell);
                }
            }
        }
    }

    /// The earliest cycle at which the next arrival will surface, or
    /// `None` when no arrival is pending (zero-rate sources).
    ///
    /// An arrival at real time `t` surfaces in the first cycle `c` with
    /// `t < c + 1`, i.e. `c = ⌊t⌋`. This is the traffic side of the
    /// engine's next-event horizon: peeking never consumes randomness, so
    /// fast-forwarding across cycles before this one is invisible to the
    /// RNG stream.
    #[must_use]
    pub fn next_arrival_cycle(&self) -> Option<u64> {
        self.queue.peek().map(|p| p.time.max(0.0).floor() as u64)
    }

    /// Pops every arrival with generation time inside cycle `cycle`
    /// (i.e. real time `< cycle + 1`), appending them to `out`.
    ///
    /// Arrival cycles are the ceiling of the real generation time, so a
    /// message generated at real time 3.2 is available at cycle 4 — except
    /// that times inside `[cycle, cycle+1)` surface *this* cycle, matching
    /// a discrete system that samples its sources once per cycle.
    pub fn arrivals_into(&mut self, cycle: u64, rng: &mut SmallRng, out: &mut Vec<Arrival>) {
        let horizon = (cycle + 1) as f64;
        while let Some(&Pending { time, pe }) = self.queue.peek().filter(|p| p.time < horizon) {
            self.queue.pop();
            let dest = self.pattern.sample(pe, self.num_pes, rng);
            out.push(Arrival {
                src: pe,
                dest,
                cycle,
            });
            let time = self.next_arrival_time(pe, time, rng);
            self.queue.push(Pending { time, pe });
        }
    }
}

/// Exponential inter-arrival sample with rate `lambda`.
fn exponential(rng: &mut SmallRng, lambda: f64) -> f64 {
    // U in (0, 1]: guard against ln(0).
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MmppProfile;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn uniform_traffic(rate: f64, flits: u32) -> TrafficConfig {
        TrafficConfig::new(rate, flits).expect("valid test traffic")
    }

    #[test]
    fn empirical_rate_matches_lambda() {
        let mut r = rng(7);
        let traffic = uniform_traffic(0.01, 16);
        let mut g = TrafficGenerator::new(64, &traffic, &mut r);
        let cycles = 50_000u64;
        let mut out = Vec::new();
        for t in 0..cycles {
            g.arrivals_into(t, &mut r, &mut out);
        }
        let expected = 0.01 * 64.0 * cycles as f64;
        let got = out.len() as f64;
        // 3.5 sigma tolerance on a Poisson count.
        let sigma = expected.sqrt();
        assert!(
            (got - expected).abs() < 3.5 * sigma,
            "got {got}, expected {expected} ± {sigma}"
        );
    }

    #[test]
    fn mmpp_preserves_the_mean_rate() {
        // The modulated source must deliver the same long-run average as
        // the Poisson source it replaces — that is the whole point of the
        // mean-preserving parameterization.
        let mut r = rng(19);
        let profile = MmppProfile::new(4.0, 0.2, 150.0).unwrap();
        let traffic = uniform_traffic(0.01, 16).with_arrival(ArrivalProcess::Mmpp(profile));
        let mut g = TrafficGenerator::new(64, &traffic, &mut r);
        let cycles = 60_000u64;
        let mut out = Vec::new();
        for t in 0..cycles {
            g.arrivals_into(t, &mut r, &mut out);
        }
        let expected = 0.01 * 64.0 * cycles as f64;
        let got = out.len() as f64;
        // Burstier counts need a wider tolerance: scale sigma by √I∞.
        let sigma = (expected * profile.index_of_dispersion(0.01)).sqrt();
        assert!(
            (got - expected).abs() < 4.5 * sigma,
            "got {got}, expected {expected} ± {sigma}"
        );
    }

    #[test]
    fn mmpp_counts_are_overdispersed_relative_to_poisson() {
        // Split the run into windows; the variance-to-mean ratio of window
        // counts must exceed 1 markedly for a bursty profile.
        let mut r = rng(23);
        let profile = MmppProfile::new(8.0, 0.1, 400.0).unwrap();
        let traffic = uniform_traffic(0.02, 8).with_arrival(ArrivalProcess::Mmpp(profile));
        let mut g = TrafficGenerator::new(16, &traffic, &mut r);
        let window = 500u64;
        let windows = 400u64;
        let mut counts = vec![0f64; windows as usize];
        let mut out = Vec::new();
        for t in 0..window * windows {
            let before = out.len();
            g.arrivals_into(t, &mut r, &mut out);
            counts[(t / window) as usize] += (out.len() - before) as f64;
            out.clear();
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var =
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (counts.len() as f64 - 1.0);
        let iod = var / mean;
        assert!(
            iod > 2.0,
            "bursty source must be overdispersed: var/mean = {iod}"
        );
    }

    #[test]
    fn destinations_are_uniform_and_never_self() {
        let mut r = rng(11);
        let traffic = uniform_traffic(0.05, 16);
        let mut g = TrafficGenerator::new(8, &traffic, &mut r);
        let mut counts = [0usize; 8];
        let mut out = Vec::new();
        for t in 0..200_000 {
            g.arrivals_into(t, &mut r, &mut out);
        }
        for a in &out {
            assert_ne!(a.src, a.dest, "no self traffic");
            counts[a.dest] += 1;
        }
        // Each PE receives ~1/8 of all messages.
        let total: usize = counts.iter().sum();
        for (pe, &c) in counts.iter().enumerate() {
            let frac = c as f64 / total as f64;
            assert!((frac - 0.125).abs() < 0.01, "dest {pe} fraction {frac}");
        }
    }

    #[test]
    fn arrivals_are_time_ordered_and_within_cycle() {
        let mut r = rng(3);
        let traffic = uniform_traffic(0.2, 4);
        let mut g = TrafficGenerator::new(4, &traffic, &mut r);
        let mut out = Vec::new();
        for t in 0..1000 {
            let before = out.len();
            g.arrivals_into(t, &mut r, &mut out);
            for a in &out[before..] {
                assert_eq!(a.cycle, t);
            }
        }
        // Cycles non-decreasing overall.
        for w in out.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut r = rng(5);
        for arrival in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Mmpp(MmppProfile::default_bursty()),
        ] {
            let traffic = uniform_traffic(0.0, 16).with_arrival(arrival);
            let mut g = TrafficGenerator::new(16, &traffic, &mut r);
            let mut out = Vec::new();
            for t in 0..10_000 {
                g.arrivals_into(t, &mut r, &mut out);
            }
            assert!(out.is_empty());
        }
    }

    #[test]
    fn bit_complement_and_half_shift_patterns() {
        let mut r = rng(9);
        let t1 = uniform_traffic(0.1, 4).with_pattern(DestinationPattern::BitComplement);
        let mut g = TrafficGenerator::new(16, &t1, &mut r);
        let mut out = Vec::new();
        for t in 0..500 {
            g.arrivals_into(t, &mut r, &mut out);
        }
        for a in &out {
            assert_eq!(a.dest, 15 ^ a.src);
        }
        let t2 = uniform_traffic(0.1, 4).with_pattern(DestinationPattern::HalfShift);
        let mut g = TrafficGenerator::new(16, &t2, &mut r);
        out.clear();
        for t in 0..500 {
            g.arrivals_into(t, &mut r, &mut out);
        }
        for a in &out {
            assert_eq!(a.dest, (a.src + 8) % 16);
        }
    }

    #[test]
    fn hotspot_concentrates_on_its_target() {
        let mut r = rng(21);
        let t = uniform_traffic(0.05, 8).with_pattern(DestinationPattern::hot_spot());
        let mut g = TrafficGenerator::new(32, &t, &mut r);
        let mut out = Vec::new();
        for cycle in 0..100_000 {
            g.arrivals_into(cycle, &mut r, &mut out);
        }
        let to_zero = out.iter().filter(|a| a.dest == 0).count() as f64;
        let frac = to_zero / out.len() as f64;
        // Aggregate over all 32 equal-rate sources: the 31 cold PEs send
        // 1/8 + (7/8)/31 each, the target itself sends nothing to itself,
        // so the expectation is (31/32)·(1/8 + (7/8)/31) ≈ 0.148.
        let expect = 31.0 / 32.0 * (1.0 / 8.0 + (7.0 / 8.0) / 31.0);
        assert!(
            (frac - expect).abs() < 0.02,
            "hotspot fraction {frac} vs {expect}"
        );
        for a in &out {
            assert_ne!(a.src, a.dest);
        }
        // Parameterized target and fraction.
        let t2 = uniform_traffic(0.05, 8).with_pattern(DestinationPattern::HotSpot {
            fraction: 0.5,
            target: 9,
        });
        let mut g2 = TrafficGenerator::new(32, &t2, &mut r);
        out.clear();
        for cycle in 0..50_000 {
            g2.arrivals_into(cycle, &mut r, &mut out);
        }
        let to_nine = out.iter().filter(|a| a.dest == 9).count() as f64;
        let frac9 = to_nine / out.len() as f64;
        // Same aggregation: (31/32)·(1/2 + (1/2)/31) = exactly 1/2.
        let expect9 = 31.0 / 32.0 * (0.5 + 0.5 / 31.0);
        assert!(
            (frac9 - expect9).abs() < 0.02,
            "hotspot fraction {frac9} vs {expect9}"
        );
    }

    #[test]
    fn hotspot_saturates_before_uniform_at_equal_load() {
        // The hot ejection channel is the bottleneck: a load that is easy
        // for uniform traffic saturates under hot-spot concentration.
        use crate::config::SimConfig;
        use crate::router::BftRouter;
        use crate::runner::run_simulation;
        use wormsim_topology::bft::{BftParams, ButterflyFatTree};
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let router = BftRouter::new(&tree);
        let cfg = SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cap_cycles: 20_000,
            seed: 23,
            batches: 4,
        };
        // Hot ejector sees 63/8 of a PE's flit load: 0.14·63/8 ≈ 1.10
        // flits/cycle > 1 (saturated), while uniform 0.14 sits below the
        // N=64 knee (~0.18).
        let traffic = TrafficConfig::from_flit_load(0.14, 16).unwrap();
        let uniform = run_simulation(&router, &cfg, &traffic);
        let hot = run_simulation(
            &router,
            &cfg,
            &traffic.with_pattern(DestinationPattern::hot_spot()),
        );
        assert!(!uniform.saturated, "uniform 0.14 must be stable on N=64");
        assert!(hot.saturated, "hot-spot 0.14 must saturate the hot ejector");
    }

    #[test]
    fn bit_complement_handles_non_power_of_two_sizes() {
        let mut r = rng(13);
        let t = uniform_traffic(0.1, 4).with_pattern(DestinationPattern::BitComplement);
        for n in [3usize, 5, 9, 27] {
            let mut g = TrafficGenerator::new(n, &t, &mut r);
            let mut out = Vec::new();
            for cycle in 0..2_000 {
                g.arrivals_into(cycle, &mut r, &mut out);
            }
            for a in &out {
                assert!(a.dest < n, "dest {} out of range for n={n}", a.dest);
                assert_ne!(a.dest, a.src, "self-traffic for n={n}");
            }
            out.clear();
        }
    }

    #[test]
    fn determinism_given_seed() {
        let run = |seed: u64, bursty: bool| {
            let mut r = rng(seed);
            let mut traffic = uniform_traffic(0.02, 8);
            if bursty {
                traffic = traffic.with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()));
            }
            let mut g = TrafficGenerator::new(32, &traffic, &mut r);
            let mut out = Vec::new();
            for t in 0..5_000 {
                g.arrivals_into(t, &mut r, &mut out);
            }
            out
        };
        assert_eq!(run(42, false), run(42, false));
        assert_ne!(run(42, false), run(43, false));
        assert_eq!(run(42, true), run(42, true));
        assert_ne!(run(42, true), run(42, false));
    }

    #[test]
    #[should_panic(expected = "pattern must fit")]
    fn invalid_pattern_for_machine_panics() {
        let mut r = rng(1);
        let t = uniform_traffic(0.01, 8).with_pattern(DestinationPattern::HotSpot {
            fraction: 0.1,
            target: 99,
        });
        let _ = TrafficGenerator::new(16, &t, &mut r);
    }
}
