//! # wormsim — wormhole-routed network performance modeling and simulation
//!
//! `wormsim` is a faithful, production-quality reproduction of
//!
//! > Ronald I. Greenberg and Lee Guan, *An Improved Analytical Model for
//! > Wormhole Routed Networks with Application to Butterfly Fat-Trees*,
//! > Proc. ICPP 1997, pp. 44–48.
//!
//! It bundles ten subsystems behind one facade:
//!
//! * [`queueing`] — M/G/1, M/M/m and M/G/m queueing theory plus the paper's
//!   wormhole corrections (service-variance surrogate, blocking probability)
//!   and a G/G/1 correction for bursty arrivals.
//! * [`topology`] — butterfly fat-trees (generalized `(c, p)` form), binary
//!   hypercubes and k-ary n-meshes as channel graphs.
//! * [`workload`] — traffic as a first-class input shared by model and
//!   simulator: destination patterns (uniform, bit-complement, half-shift,
//!   hot-spot(β, target), transpose, tornado, nearest-neighbor), Poisson and
//!   MMPP bursty arrival processes, and routing-induced per-channel flow
//!   vectors built over the one routing call (`FlowRouting::route`) that
//!   the simulator's engine also makes at every hop.
//! * [`model`] — the paper's analytical model: the general framework of §2,
//!   the butterfly fat-tree instantiation of §3 (a class spec that the §2
//!   solver solves), baseline models, ablations, and the workload-driven
//!   per-station generalization.
//! * [`guard`] — saturation-aware solving: typed solve outcomes and knee
//!   bracketing (the escalation ladder for marginal loads lives with the
//!   model, in `NetworkSpec::solve_outcome`).
//! * [`sim`] — a cycle-accurate flit-level wormhole-routing simulator used
//!   to validate the model exactly as the paper does.
//! * [`lanes`] — virtual-channel (multi-lane) channels for the simulator:
//!   validated lane configs, the first-free allocation policy, and
//!   occupancy statistics (the multi-lane model's lane math is
//!   [`queueing::lanes`]).
//! * [`faults`] — seeded fault injection: deterministic link/switch
//!   knockout plans, fault-aware degraded routing for every topology, and
//!   graceful degradation contracts (typed disconnection errors, unroutable
//!   accounting — never a panic or a hang).
//! * [`obs`] — opt-in observability: worm-lifecycle event tracing,
//!   per-channel/per-lane usage accounting, windowed time series with
//!   MSER-5 steady-state detection, log-linear tail histograms, solver
//!   convergence telemetry, and JSONL / Chrome `trace_event` exporters
//!   (lifecycle slices plus counter tracks). Disabled (the default) it
//!   costs one not-taken branch per hook; enabled it is RNG-neutral —
//!   the observed run's results are bit-for-bit the bare run's.
//! * [`experiments`] — the harness regenerating every figure and table.
//!
//! ## Quickstart
//!
//! ```
//! use wormsim::prelude::*;
//!
//! // The paper's headline configuration: 1024 processors, 32-flit worms.
//! let net = BftParams::paper(1024).unwrap();
//! let model = BftModel::new(net, 32.0);
//!
//! // Average latency at 0.02 flits/cycle/processor offered load.
//! let lat = model.latency_at_flit_load(0.02).unwrap();
//! assert!(lat.total > 0.0);
//!
//! // Saturation throughput (flits/cycle/processor).
//! let sat = model.saturation_flit_load().unwrap();
//! assert!(sat > 0.02);
//! ```
//!
//! ## Workloads: a hot-spot model-vs-simulation comparison
//!
//! The same [`DestinationPattern`](prelude::DestinationPattern) drives
//! both sides: the analytical model integrates it exactly through a
//! routing-induced flow vector, and the simulator samples destinations
//! from it.
//!
//! ```
//! use wormsim::prelude::*;
//!
//! let params = BftParams::paper(16).unwrap();
//! let tree = ButterflyFatTree::new(params);
//! let pattern = DestinationPattern::hot_spot(); // 1/8 of traffic to PE 0
//!
//! // Model: push the pattern's flow matrix through the tree's routing and
//! // solve one §2 class per arbitration station.
//! let flows = FlowVector::build(&tree, &pattern).unwrap();
//! let mut model = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
//! let predicted = model.latency_at(0.002, &ModelOptions::paper()).unwrap().total;
//!
//! // Simulation: the identical workload, flit by flit.
//! let router = wormsim::sim::router::BftRouter::new(&tree);
//! let cfg = SimConfig { warmup_cycles: 1_000, measure_cycles: 8_000, ..SimConfig::quick() };
//! let traffic = TrafficConfig::new(0.002, 16).unwrap().with_pattern(pattern);
//! let simulated = run_simulation(&router, &cfg, &traffic).avg_latency;
//!
//! // At this low load the two agree within a few percent.
//! assert!((predicted - simulated).abs() / simulated < 0.05);
//! ```
//!
//! ## Virtual channels: multi-lane wormhole routing
//!
//! Every physical channel can carry `L ≥ 1` lanes; the simulator
//! multiplexes the link's flit bandwidth among them and the model prices
//! lane availability through M/G/(m·L) lane-slot waits. `L = 1` is
//! bit-for-bit the paper's single-lane system.
//!
//! ```
//! use wormsim::prelude::*;
//!
//! let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
//! let router = wormsim::sim::router::BftRouter::new(&tree);
//! let cfg = SimConfig { warmup_cycles: 1_000, measure_cycles: 8_000, ..SimConfig::quick() };
//! let traffic = TrafficConfig::from_flit_load(0.05, 16).unwrap();
//!
//! let lanes = LaneConfig::new(2, LaneAllocatorKind::FirstFree).unwrap();
//! let r = run_simulation_with_lanes(&router, &cfg, &traffic, &lanes);
//! assert_eq!(r.lanes, 2);
//! assert_eq!(r.lane_stats.len(), 2);
//!
//! // The analytical model accepts the same lane count.
//! let model = BftModel::with_options(
//!     BftParams::paper(16).unwrap(), 16.0, ModelOptions::paper().with_lanes(2));
//! assert!(model.latency_at_flit_load(0.05).is_ok());
//! ```

#![warn(missing_docs)]

pub use wormsim_core as model;
pub use wormsim_experiments as experiments;
pub use wormsim_faults as faults;
pub use wormsim_guard as guard;
pub use wormsim_lanes as lanes;
pub use wormsim_obs as obs;
pub use wormsim_queueing as queueing;
pub use wormsim_sim as sim;
pub use wormsim_topology as topology;
pub use wormsim_workload as workload;

/// Commonly used types, re-exported for `use wormsim::prelude::*`.
pub mod prelude {
    pub use wormsim_core::bft::{BftModel, ChannelAudit, LatencyBreakdown};
    pub use wormsim_core::flows::FlowModelSweep;
    pub use wormsim_core::framework::{ring_spec, WarmStart};
    pub use wormsim_core::options::ModelOptions;
    pub use wormsim_core::throughput::SaturationPoint;
    pub use wormsim_core::ModelError;
    pub use wormsim_faults::{FaultError, FaultPlan, FaultSpec, FaultedBft};
    pub use wormsim_guard::{Knee, KneeConfig, KneeError, SolveOutcome};
    pub use wormsim_lanes::{LaneAllocatorKind, LaneConfig, LaneError, LaneStats};
    pub use wormsim_obs::{
        detect_steady_state, Histogram, ModelTelemetry, ObsConfig, SimSnapshot, SolverTrace,
        StallCause, StationBreakdown, SteadyState, TimeSeriesConfig, TimeSeriesResult, WindowStats,
        WormEvent,
    };
    pub use wormsim_queueing::QueueingError;
    pub use wormsim_sim::config::{EngineKind, SimConfig, TrafficConfig};
    pub use wormsim_sim::router::FaultedBftRouter;
    pub use wormsim_sim::runner::{
        find_saturation, run_simulation, run_simulation_observed, run_simulation_with_lanes,
        sweep_traffic, SimResult,
    };
    pub use wormsim_topology::bft::{BftParams, ButterflyFatTree};
    pub use wormsim_topology::{ChannelClass, ChannelNetwork};
    pub use wormsim_workload::{
        ArrivalProcess, DestinationPattern, FlowRouting, FlowVector, MmppProfile, Route,
        WorkloadError,
    };
}
