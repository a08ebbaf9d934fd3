//! Cycle-accurate flit-level wormhole-routing simulator.
//!
//! This crate is the validation substrate of the Greenberg–Guan (ICPP 1997)
//! reproduction: a discrete-time simulator implementing exactly the paper's
//! §2 assumptions, so that the analytical model can be compared against
//! *behaviour defined by those assumptions* (the authors' own simulator was
//! never released):
//!
//! 1. Poisson message generation at every PE, uniformly random destinations
//!    (≠ source) — generalized: any `wormsim-workload` destination pattern
//!    and arrival process (two-state MMPP bursty sources included) can be
//!    plugged in through [`config::TrafficConfig`].
//! 2. Fixed worm length; worms move as **rigid chains** over single-flit
//!    channel buffers — when the head advances one hop, every in-network
//!    flit advances one hop; when the head blocks, all flits hold.
//! 3. **FCFS arbitration** at every output: each arbitration station (a
//!    single channel, or the bundle of `p` up-links of a fat-tree switch)
//!    owns one first-come-first-served queue; the butterfly fat-tree's
//!    adaptive up-link rule ("pick a random free up-link, else the other,
//!    else wait") is realized as a 2-server station with random choice
//!    among free members.
//! 4. Sinks consume one flit per cycle and never block.
//!
//! Beyond the paper's assumptions, every physical channel can carry
//! `L ≥ 1` **virtual-channel lanes** ([`wormsim_lanes::LaneConfig`],
//! re-exported as [`config::LaneConfig`]): each lane buffers one worm, a
//! grant takes the channel's lowest free lane (no RNG draw), and the
//! occupied lanes flit-multiplex the physical link (one flit per channel
//! per cycle; a worm denied its span's bandwidth stalls and retries). At
//! `L = 1` the engine is bit-for-bit the paper's single-lane simulator.
//!
//! # Architecture
//!
//! * [`engine`] — the cycle kernel: request → grant → advance phases,
//!   channel occupancy, worm lifecycle. Two bit-exact execution cores
//!   ([`config::EngineKind`]): the reference walk (the oracle) and
//!   idle-span fast-forwarding (the default).
//! * [`router`] — the per-topology routers: butterfly fat-tree, hypercube
//!   (e-cube), k-ary n-mesh (dimension order). A [`router::Router`] is a
//!   [`wormsim_workload::FlowRouting`] plus a label and a fault plan, so
//!   the engine makes the same one routing call per hop
//!   ([`wormsim_workload::FlowRouting::route`]) that the model's flow
//!   vectors follow; a route that does not leave the worm's head node is
//!   refused and the message counted unroutable. The hypercube and mesh
//!   routers and
//!   [`router::FaultedBftRouter`] route around a
//!   `wormsim_faults::FaultPlan`, report unroutable messages instead of
//!   wedging, and are bit-for-bit the pristine topology's routing under
//!   an empty plan.
//! * [`traffic`] — Poisson or MMPP-modulated sources on a continuous
//!   clock, merged through a binary heap so per-cycle cost scales with
//!   arrivals, not PEs; destinations sampled from the workload's pattern.
//! * [`stats`] — Welford accumulators, batch-means confidence intervals,
//!   per-channel-class audit counters.
//! * [`runner`] — single runs, thread-parallel load sweeps and saturation
//!   scans with deterministic per-point seeds that return typed errors
//!   instead of panicking.
//!
//! The engine also hosts the optional `wormsim-obs` observer
//! ([`runner::run_simulation_observed`]): worm-lifecycle events,
//! per-channel busy/stalled/idle accounting and stall causes, captured
//! RNG-neutrally — an observed run's `SimResult` is bit-for-bit the bare
//! run's, on both engine cores, and the snapshot is identical across
//! them. Without an observer (the default) the hooks are single
//! not-taken branches.
//!
//! # Example
//!
//! ```
//! use wormsim_sim::config::{SimConfig, TrafficConfig};
//! use wormsim_sim::router::BftRouter;
//! use wormsim_sim::runner::run_simulation;
//! use wormsim_topology::bft::{BftParams, ButterflyFatTree};
//!
//! let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
//! let router = BftRouter::new(&tree);
//! let cfg = SimConfig { warmup_cycles: 2_000, measure_cycles: 10_000, ..SimConfig::default() };
//! let traffic = TrafficConfig::from_flit_load(0.01, 16).unwrap();
//! let result = run_simulation(&router, &cfg, &traffic);
//! assert!(!result.saturated);
//! // Zero-ish load: latency close to s + D̄ − 1.
//! assert!(result.avg_latency > 15.0 && result.avg_latency < 40.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod config;
pub mod engine;
pub mod router;
pub mod runner;
pub mod stats;
pub mod traffic;

pub use config::{EngineKind, SimConfig, SimConfigError, TrafficConfig};
pub use router::{BftRouter, FaultedBftRouter, HypercubeRouter, MeshRouter, Router};
pub use runner::{run_simulation, run_simulation_observed, run_simulation_with_lanes, SimResult};
