//! Spans and counters recorded around every library call.
//!
//! The [`Tracer`] always keeps the cheap part: inclusive wall time per
//! layer and the per-layer work counters (reset after each pass). With
//! recording on (the traced run) it also keeps every span in memory, with
//! its parent, so that self times can be computed and the spans written out
//! as a Chrome `trace_event` file when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A span kind: one library layer, or one level of the harness itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Topology construction (trees and their routers).
    Topology,
    /// Fault-plan generation and fault-aware fabric construction.
    Faults,
    /// Routing-induced flow vectors.
    Workload,
    /// Simulation runs.
    Sim,
    /// Model construction (closed-form models and per-station specs).
    CoreSpec,
    /// Model evaluations.
    CoreSolve,
    /// Knee bracketing.
    Guard,
    /// One repetition of a workload's fixed set-up (harness).
    Setup,
    /// One pass (harness).
    Pass,
    /// One op inside a pass (harness).
    Op,
}

impl Layer {
    /// Number of kinds, for per-layer arrays.
    pub const COUNT: usize = 10;

    /// Span name, `<crate>.<operation>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Topology => "topology.build",
            Layer::Faults => "faults.plan",
            Layer::Workload => "workload.flow_build",
            Layer::Sim => "sim.run",
            Layer::CoreSpec => "core.spec_build",
            Layer::CoreSolve => "core.solve",
            Layer::Guard => "guard.knee",
            Layer::Setup => "bench.setup",
            Layer::Pass => "bench.pass",
            Layer::Op => "bench.op",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Body of a JSON object (`"n":64,"lanes":2`) describing the call.
    pub args: String,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work counted at the layer boundaries during one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Cycles simulated, warm-up and drain included.
    pub cycles_run: u64,
    /// Of those, cycles jumped over rather than walked one by one.
    pub cycles_skipped: u64,
    /// Flits of completed measured messages.
    pub flits_completed: u64,
    /// Runs the simulator flagged as saturated.
    pub saturated_runs: u64,
    /// Measured messages that did not drain.
    pub messages_incomplete: u64,
    /// Measured messages dropped as unroutable.
    pub messages_unroutable: u64,
    /// Worms delivered, observed runs.
    pub worms_delivered: u64,
    /// Routing decisions, observed runs.
    pub route_decisions: u64,
    /// Lane grants, observed runs.
    pub lane_grants: u64,
    /// Lane grants to lane index 1 or above, observed runs.
    pub upper_lane_grants: u64,
    /// Worm hops, observed runs.
    pub worm_hops: u64,
    /// Stalls at a busy link, observed runs.
    pub stalls_link_busy: u64,
    /// Stalls for want of a free lane, observed runs.
    pub stalls_no_free_lane: u64,
    /// Stalls queued behind an earlier worm, observed runs.
    pub stalls_fcfs_queued: u64,
    /// Stalls at a dead link, observed runs.
    pub stalls_dead_link: u64,
    /// Channel-cycles a flit crossed, observed runs.
    pub channel_busy_cycles: u64,
    /// Channel-cycles held without a flit crossing, observed runs.
    pub channel_stalled_cycles: u64,
    /// Channel-cycles in total (channels × cycles), observed runs.
    pub channel_cycles: u64,
    /// Model evaluations outside knee bracketing.
    pub solves: u64,
    /// Evaluations that came back saturated (typed outcome or error).
    pub saturated_outcomes: u64,
    /// Fixed-point iterations of warm-started sweeps.
    pub fixed_point_iterations: u64,
    /// Probe evaluations spent bracketing knees.
    pub knee_probes: u64,
    /// Source-destination pairs pushed through flow builds.
    pub flow_pairs: u64,
    /// Fault plans rejected for disconnecting the fabric.
    pub plans_rejected: u64,
}

impl Counters {
    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counters) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            cycles_run,
            cycles_skipped,
            flits_completed,
            saturated_runs,
            messages_incomplete,
            messages_unroutable,
            worms_delivered,
            route_decisions,
            lane_grants,
            upper_lane_grants,
            worm_hops,
            stalls_link_busy,
            stalls_no_free_lane,
            stalls_fcfs_queued,
            stalls_dead_link,
            channel_busy_cycles,
            channel_stalled_cycles,
            channel_cycles,
            solves,
            saturated_outcomes,
            fixed_point_iterations,
            knee_probes,
            flow_pairs,
            plans_rejected
        );
    }
}

/// Inclusive wall time per [`Layer`], nanoseconds.
pub type LayerTimes = [u64; Layer::COUNT];

/// The recorder every layer call reports to.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    /// Open spans: their index in `spans` when recording.
    open: Vec<Option<usize>>,
    times: LayerTimes,
    /// Counters for the current pass; layer functions update them.
    pub counts: Counters,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            times: [0; Layer::COUNT],
            counts: Counters::default(),
        }
    }

    /// Whether spans are being recorded (and simulations observed).
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Turns span recording on or off; only between spans.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span of kind `layer`. `args` is evaluated only
    /// when recording.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        args: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start = self.now_ns();
        let slot = if self.recording {
            self.spans.push(Span {
                layer,
                start_ns: start,
                end_ns: start,
                parent: self.open.last().copied().flatten(),
                args: args(),
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.open.push(slot);
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        if let Some(i) = slot {
            self.spans[i].end_ns = end;
        }
        self.times[layer as usize] += end - start;
        out
    }

    /// Inclusive wall time per layer since the tracer was created.
    pub fn times(&self) -> LayerTimes {
        self.times
    }

    /// Takes the counters accumulated since the last call.
    pub fn take_counts(&mut self) -> Counters {
        std::mem::take(&mut self.counts)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Spans come from one thread, so children are disjoint
/// sub-intervals of their parent and the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Index of the outermost span enclosing span `i` (itself if a root).
pub fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Renders spans in Chrome `trace_event` JSON-object form, the format the
/// library's observability exporters write: one complete (`"ph":"X"`)
/// event per span on a single thread, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span], label: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 256);
    out.push_str("{\"traceEvents\": [\n");
    let _ = write!(
        out,
        r#"{{"name":"process_name","ph":"M","pid":1,"args":{{"name":"{label}"}}}}"#
    );
    for s in spans {
        let cat = s.layer.name().split('.').next().unwrap_or("bench");
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{{}}}}}",
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.args
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            args: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Layer::Pass, 0, 100, None),
            span(Layer::Op, 10, 60, Some(0)),
            span(Layer::Sim, 15, 45, Some(1)),
            span(Layer::CoreSolve, 45, 55, Some(1)),
            span(Layer::Workload, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 30, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
        assert_eq!(root_of(&spans, 2), 0);
        assert_eq!(root_of(&spans, 0), 0);
    }

    #[test]
    fn tracer_nests_spans_and_accumulates_inclusive_times() {
        let mut tr = Tracer::new();
        tr.set_recording(true);
        tr.span(Layer::Pass, String::new, |tr| {
            tr.span(Layer::Sim, || "\"n\":16".into(), |_| ());
            tr.span(Layer::CoreSolve, String::new, |_| ());
        });
        let spans = tr.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tr.times()[Layer::Pass as usize], spans[0].dur_ns());
        tr.counts.solves = 3;
        assert_eq!(tr.take_counts().solves, 3);
        assert_eq!(tr.take_counts().solves, 0, "counts reset");
    }

    #[test]
    fn unrecorded_spans_still_time_layers() {
        let mut tr = Tracer::new();
        let v = tr.span(
            Layer::Sim,
            || unreachable!("args built only when recording"),
            |_| 7,
        );
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let spans = vec![
            span(Layer::Pass, 0, 2_500, None),
            Span {
                args: "\"n\":1024,\"lanes\":2".into(),
                ..span(Layer::Sim, 100, 2_000, Some(0))
            },
        ];
        let json = chrome_trace(&spans, "fig3-n1024");
        assert!(crate::layers::json_is_well_formed(&json), "{json}");
        assert!(json.contains(r#""name":"sim.run","cat":"sim","ph":"X""#));
        assert!(crate::layers::json_is_well_formed(&chrome_trace(&[], "x")));
    }
}
