//! Opt-in observability for wormsim: metric registry, worm-lifecycle
//! event sink, per-channel/per-lane accounting, solver convergence
//! telemetry, JSONL / Chrome `trace_event` exporters, and the JSON reader
//! that checks them.
//!
//! This crate is a dependency-free leaf so that every layer of the
//! workspace (simulator, queueing solver, modeling framework,
//! experiments) can speak the same telemetry types without cycles.
//!
//! # Cost when off
//!
//! Instrumentation is opt-in per run. The simulation engine stores an
//! `Option<Box<SimTrace>>` that stays `None` unless an observer is
//! attached, so an unobserved run pays one not-taken branch per hook
//! site. What an attached observer costs is measured end to end:
//! `wormbench --trace 1` reports a counters-only observer's cost as
//! `obs.trace_overhead` (see `benchmark/README.md`). The queueing solver
//! takes an `Option<&mut SolverTrace>` with the same property.
//!
//! # Neutrality guarantee
//!
//! Hooks never draw from the simulation RNG and never alter control
//! flow, so instrumented runs are bit-for-bit identical to bare runs,
//! and — because events are only emitted at worm state transitions,
//! which occur in individually-walked cycles under every engine — the
//! captured event stream and metric snapshot are themselves identical
//! across all engine kinds. The differential test suite asserts both
//! properties.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod events;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod model;
pub mod sim;
pub mod steady;
pub mod timeseries;

pub use events::{EventSink, StallCause, WormEvent};
pub use metrics::{Histogram, Registry};
pub use model::{
    AitkenStep, IterationSample, LadderSample, ModelTelemetry, SolverTrace, StationBreakdown,
};
pub use sim::{ChannelUsage, LaneUsage, ObsConfig, SimSnapshot, SimTrace};
pub use steady::{detect_steady_state, mser, mser5, SteadyState, Truncation};
pub use timeseries::{TimeSeries, TimeSeriesConfig, TimeSeriesResult, WindowStats};
