//! The general wormhole-routing model of paper §2, for arbitrary networks
//! described as symmetric channel classes.
//!
//! # Model inputs
//!
//! A network is specified as a set of **channel classes**. All channels of
//! a class are statistically identical by symmetry (the paper exploits the
//! same symmetry per level of the fat-tree). Each class carries:
//!
//! * the per-channel Poisson arrival rate `λ` per unit source rate (the
//!   load-free routing factor of Eqs. 14–15): every solve takes the source
//!   rate `λ₀` and runs the class at `λ·λ₀`;
//! * a **station multiplicity** `m`: how many channels of this class are
//!   bundled into one multi-server arbitration station (the fat-tree's
//!   up-link pairs have `m = 2`; ordinary links `m = 1`),
//! * either a fixed terminal service time (ejection channels: `x̄ = s/f`,
//!   Eq. 16) or a list of forwarding entries.
//!
//! A forwarding entry says: a worm arriving over a channel of this class
//! continues into one of `multiplicity` stations of class `to`, each with
//! probability `prob_each` (`R(i|j)` of the paper). The entries of a class
//! must total probability 1.
//!
//! # Solution
//!
//! Service times obey Eq. 11:
//!
//! ```text
//! x̄_i = Σ_j R(i|j)·(x̄_j + P(i|j)·W_j)
//! ```
//!
//! with `W_j` the M/G/m wait of station `j` at its combined arrival rate
//! (Eqs. 6/8, `wormsim_queueing::wormhole::station_wait`) and `P(i|j)` the
//! per-channel blocking correction (Eq. 10,
//! `wormsim_queueing::blocking::blocking_probability`). The class
//! dependency graph is solved in reverse topological order when it is a
//! DAG (always the case for tree-ups/downs and dimension-ordered cubes);
//! otherwise a damped fixed-point iteration is used.
//!
//! # Saturation
//!
//! [`NetworkSpec::solve`] runs that iteration once at a given `λ₀` and
//! returns a typed error past the knee. [`NetworkSpec::solve_outcome`] owns the escalation
//! ladder: a private three-rung table (plain, heavily damped, accelerated
//! from a cold seed) that it climbs on a retryable failure before
//! classifying the point as a `wormsim_guard::SolveOutcome`.
//! [`NetworkSpec::find_knee`] brackets the `λ₀` where those solves stop
//! converging.

use crate::error::ModelError;
use crate::options::ModelOptions;
use crate::Result;
use wormsim_guard::{bracket_knee, Knee, KneeConfig, SolveOutcome};
use wormsim_obs::{LadderSample, ModelTelemetry, SolverTrace, StationBreakdown};
use wormsim_queueing::blocking::blocking_probability;
use wormsim_queueing::solver::{fixed_point, fixed_point_accelerated, FixedPointConfig};
use wormsim_queueing::{wormhole, QueueingError};

/// Reusable warm-start state for solving a *family* of related specs — a
/// load sweep, a saturation bisection, a β sweep — whose solutions vary
/// continuously with the swept parameter.
///
/// Passing the same `WarmStart` as the `warm` argument of consecutive
/// [`NetworkSpec::solve`] calls seeds each cyclic solve with the previous
/// converged service-time vector and engages the accelerated iteration
/// ([`fixed_point_accelerated`]: adaptive damping plus verified Aitken
/// Δ²), typically cutting fixed-point iterations by well over the 30%
/// sweep target on interior points while converging to the same vectors
/// (same map, same tolerance). DAG specs resolve in one backward pass
/// either way; the cache still updates so a mixed family stays seeded.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    guess: Option<Vec<f64>>,
    total_iterations: usize,
    solves: usize,
}

impl WarmStart {
    /// Fresh, unseeded state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total fixed-point iterations (map evaluations) across all solves
    /// fed through this state — the benchmark currency of warm starting.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// Number of solves fed through this state.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// The last converged service-time vector, if any solve succeeded.
    #[must_use]
    pub fn last_values(&self) -> Option<&[f64]> {
        self.guess.as_deref()
    }
}

/// Index of a channel class within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(pub usize);

/// One forwarding entry of Eq. 3/11: continue into one of `multiplicity`
/// stations of class `to`, each chosen with probability `prob_each`.
#[derive(Debug, Clone, Copy)]
pub struct Forward {
    /// Target channel class (the class whose channels form the station).
    pub to: ClassId,
    /// Number of distinct same-class stations reachable from here (e.g. the
    /// `c − 1` sibling down-links of a fat-tree switch).
    pub multiplicity: u32,
    /// Routing probability `R(i|j)` into each one of them.
    pub prob_each: f64,
    /// Routing probability used in the Eq. 10 blocking correction.
    ///
    /// This is `R(i|j)` conditioned on the *specific channel* the worm
    /// arrives over — the probability with which the worm's own class
    /// contributes to the target station's queue along its realized path.
    /// For single-channel sources, and whenever every member channel of a
    /// bundle can reach the target, it equals `prob_each`
    /// ([`Forward::flat`]). When an adaptive bundle's members partition
    /// the targets (a fat-tree up-link pair: each parent owns its own
    /// sibling down-links), the per-channel probability is larger than the
    /// bundle-marginal `prob_each` by the bundle width.
    pub blocking_prob: f64,
}

impl Forward {
    /// A forward whose blocking probability equals its routing
    /// probability — the common case.
    #[must_use]
    pub fn flat(to: ClassId, multiplicity: u32, prob_each: f64) -> Self {
        Self {
            to,
            multiplicity,
            prob_each,
            blocking_prob: prob_each,
        }
    }
}

/// Body of a channel class: terminal (fixed service) or interior
/// (service resolved from forwarding).
#[derive(Debug, Clone)]
pub enum ClassBody {
    /// Terminal channel: service time is fixed (ejection channels consume
    /// one flit per cycle, so `x̄ = s/f`).
    Terminal {
        /// The fixed mean service time.
        service_time: f64,
    },
    /// Interior channel: service time follows Eq. 11 over these entries.
    Interior {
        /// The forwarding entries (probabilities must total 1).
        forwards: Vec<Forward>,
    },
}

/// A channel class: identical channels with one arrival rate and one
/// station multiplicity.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Human-readable label (paper notation where applicable).
    pub name: String,
    /// Per-channel Poisson arrival rate per unit source rate: a solve at
    /// `λ₀` runs this class at `lambda · λ₀`. A spec written with absolute
    /// rates (worms/cycle) is solved at `λ₀ = 1`.
    pub lambda: f64,
    /// Channels per arbitration station (`m` of the M/G/m model).
    pub servers: u32,
    /// Terminal or interior behaviour.
    pub body: ClassBody,
}

/// A full network specification for the general model.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// The channel classes.
    pub classes: Vec<ClassSpec>,
    /// Worm length `s/f` in flits.
    pub worm_flits: f64,
    /// The injection-channel class (must have `servers == 1`).
    pub injection: ClassId,
    /// Average message distance `D̄` in channels (for Eq. 2/25).
    pub avg_distance: f64,
}

/// Solved per-class quantities.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Mean service time `x̄` per class.
    pub service_times: Vec<f64>,
    /// Station-level mean waiting time `W` per class.
    pub waiting_times: Vec<f64>,
    /// Fixed-point iterations used (0 when the class graph was a DAG).
    pub iterations: usize,
}

/// How one solve attempt runs its cyclic fixed point: one rung of the
/// escalation ladder.
#[derive(Debug, Clone, Copy)]
struct SolveProfile {
    /// Telemetry label ([`LadderSample::rung`]).
    label: &'static str,
    /// Damping factor θ of the Picard step `x ← (1−θ)x + θf(x)`.
    damping: f64,
    /// Use the Aitken-accelerated adaptive-damping solver.
    accelerated: bool,
    /// Ignore any warm-start guess and seed from `x̄ = s/f`.
    cold_seed: bool,
}

/// The escalation ladder, in climbing order; [`NetworkSpec::solve`] runs
/// the first rung alone.
///
/// * `plain` — θ = 0.5, accelerated iff warm-started.
/// * `damped` — θ = 0.1 plain iteration: slow, but contracts where the
///   θ = 0.5 map oscillates.
/// * `accel_restart` — Aitken Δ² from a cold seed, able to land on
///   weakly-repelling fixed points and to escape a poisoned warm guess.
fn ladder(warm_started: bool) -> [SolveProfile; 3] {
    let rung = |label, damping, accelerated, cold_seed| SolveProfile {
        label,
        damping,
        accelerated,
        cold_seed,
    };
    [
        rung("plain", 0.5, warm_started, false),
        rung("damped", 0.1, false, false),
        rung("accel_restart", 0.5, true, true),
    ]
}

impl NetworkSpec {
    /// Checks internal consistency: rates and probabilities in range,
    /// forwarding targets valid, probabilities normalized, injection class
    /// single-server.
    ///
    /// # Errors
    ///
    /// [`ModelError::Spec`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        if !(self.worm_flits.is_finite() && self.worm_flits > 0.0) {
            return Err(ModelError::Spec(format!(
                "invalid worm length {}",
                self.worm_flits
            )));
        }
        if !(self.avg_distance.is_finite() && self.avg_distance >= 1.0) {
            return Err(ModelError::Spec(format!(
                "invalid average distance {}",
                self.avg_distance
            )));
        }
        if self.injection.0 >= self.classes.len() {
            return Err(ModelError::Spec("injection class out of range".into()));
        }
        if self.classes[self.injection.0].servers != 1 {
            return Err(ModelError::Spec(
                "injection class must be single-server".into(),
            ));
        }
        for (i, class) in self.classes.iter().enumerate() {
            if !(class.lambda.is_finite() && class.lambda >= 0.0) {
                return Err(ModelError::Spec(format!(
                    "class {}: invalid rate {}",
                    class.name, class.lambda
                )));
            }
            if class.servers == 0 {
                return Err(ModelError::Spec(format!(
                    "class {}: zero servers",
                    class.name
                )));
            }
            match &class.body {
                ClassBody::Terminal { service_time } => {
                    if !(service_time.is_finite() && *service_time > 0.0) {
                        return Err(ModelError::Spec(format!(
                            "class {}: invalid terminal service {service_time}",
                            class.name
                        )));
                    }
                }
                ClassBody::Interior { forwards } => {
                    if forwards.is_empty() {
                        return Err(ModelError::Spec(format!(
                            "class {}: interior class with no forwards",
                            class.name
                        )));
                    }
                    let mut total = 0.0;
                    for f in forwards {
                        if f.to.0 >= self.classes.len() {
                            return Err(ModelError::Spec(format!(
                                "class {}: forward to missing class {}",
                                class.name, f.to.0
                            )));
                        }
                        if f.to.0 == i {
                            return Err(ModelError::Spec(format!(
                                "class {}: self-forwarding is not allowed",
                                class.name
                            )));
                        }
                        if f.multiplicity == 0 {
                            return Err(ModelError::Spec(format!(
                                "class {}: zero-multiplicity forward",
                                class.name
                            )));
                        }
                        if !(f.prob_each.is_finite() && (0.0..=1.0).contains(&f.prob_each)) {
                            return Err(ModelError::Spec(format!(
                                "class {}: invalid probability {}",
                                class.name, f.prob_each
                            )));
                        }
                        if !(f.blocking_prob.is_finite() && (0.0..=1.0).contains(&f.blocking_prob))
                        {
                            return Err(ModelError::Spec(format!(
                                "class {}: invalid blocking probability {}",
                                class.name, f.blocking_prob
                            )));
                        }
                        total += f64::from(f.multiplicity) * f.prob_each;
                    }
                    if (total - 1.0).abs() > 1e-9 {
                        return Err(ModelError::Spec(format!(
                            "class {}: forwarding probabilities total {total}, expected 1",
                            class.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Arrival rate of class `j` at source rate `t` (`λ₀`): the one place
    /// a solve reads a class rate.
    pub(crate) fn rate(&self, j: usize, t: f64) -> f64 {
        self.classes[j].lambda * t
    }

    /// Station-level waiting time for class `j` at service time `x`: the
    /// queueing crate's [`wormhole::station_wait`] (Eqs. 5, 6 and 8),
    /// honouring the multi-server and lane options.
    ///
    /// A multi-server class under `multi_server_up` is one station of `m`
    /// channels at the combined rate `m·λ`; otherwise (single-server
    /// classes and the A1 ablation) each channel is its own station. With
    /// `L` lanes the station's grant capacity is its `m·L` lane slots, each
    /// held for one lane-residence: the wait for a free lane is the
    /// M/G/(m·L) wait at the same rate — the occupancy distribution over
    /// the lane slots (Erlang C under the Lee–Longton scaling) is what
    /// prices lane availability, collapsing to the paper's M/G/m at
    /// `L = 1`.
    fn station_wait(&self, j: usize, x: f64, options: &ModelOptions, t: f64) -> Result<f64> {
        let class = &self.classes[j];
        let lambda = self.rate(j, t);
        let (servers, lambda) = if class.servers > 1 && options.multi_server_up {
            (class.servers, f64::from(class.servers) * lambda)
        } else {
            (1, lambda)
        };
        wormhole::station_wait(servers * options.lanes, lambda, x, self.worm_flits)
            .map_err(|e| ModelError::at(class.name.clone(), e))
    }

    /// Mean lane-residence time of a worm on a class-`j` channel: `x` with
    /// its transmission component stretched by flit multiplexing across
    /// the channel's `L` lanes (`wormsim_queueing::lanes`). Identity —
    /// bit-for-bit — at `L = 1`.
    fn lane_residence(&self, j: usize, x: f64, options: &ModelOptions, t: f64) -> Result<f64> {
        if options.lanes == 1 {
            return Ok(x);
        }
        // Terminal service can sit exactly at the s/f floor; interior
        // iterates may transiently dip below it from damping, so clamp the
        // transmission decomposition rather than erroring mid-iteration.
        let x_checked = x.max(self.worm_flits);
        wormsim_queueing::lanes::shared_link_residence(
            options.lanes,
            x_checked,
            self.worm_flits,
            self.rate(j, t),
        )
        .map_err(|e| ModelError::at(self.classes[j].name.clone(), e))
    }

    /// Blocking factor `P(i|j)` of Eq. 10 for a worm from class `i`
    /// entering a station of class `j` with per-station probability `r`:
    /// the per-channel form [`blocking_probability`], in which the server
    /// count cancels (or 1 under the A2 ablation).
    fn blocking(&self, i: usize, j: usize, r: f64, options: &ModelOptions, t: f64) -> f64 {
        if !options.blocking_correction {
            return 1.0;
        }
        let servers = self.classes[j].servers;
        // Under the single-server ablation the station degenerates to one
        // of m independent links chosen uniformly, so R per link is r/m.
        let r = if servers > 1 && !options.multi_server_up {
            r / f64::from(servers)
        } else {
            r
        };
        blocking_probability(self.rate(i, t), self.rate(j, t), r)
    }

    /// Eq. 11 for class `i` given current service-time estimates `x`,
    /// with the multi-lane extension: downstream service enters as the
    /// lane residence (multiplex-stretched transmissions) and the wait is
    /// the M/G/(m·L) lane-slot wait of [`Self::station_wait`], still
    /// damped by Eq. 10's blocking probability. At `lanes = 1` every term
    /// reduces to the identity and this is the paper's Eq. 11 unchanged.
    fn service_equation(&self, i: usize, x: &[f64], options: &ModelOptions, t: f64) -> Result<f64> {
        match &self.classes[i].body {
            ClassBody::Terminal { service_time } => Ok(*service_time),
            ClassBody::Interior { forwards } => {
                let mut sum = 0.0;
                for f in forwards {
                    let j = f.to.0;
                    let r = self.lane_residence(j, x[j], options, t)?;
                    let w = self.station_wait(j, r, options, t)?;
                    let p = self.blocking(i, j, f.blocking_prob, options, t);
                    sum += f64::from(f.multiplicity) * f.prob_each * (r + p * w);
                }
                Ok(sum)
            }
        }
    }

    /// Reverse-topological order of the class dependency graph (edges
    /// `i → forward.to`), or `None` when cyclic: Kahn's algorithm over a
    /// stack of ready classes, each resolved class releasing its
    /// dependents in increasing class index. Every forward must target an
    /// existing class, as [`Self::validate`] checks.
    pub(crate) fn reverse_topological_order(&self) -> Option<Vec<usize>> {
        let n = self.classes.len();
        let forwards = |i: usize| match &self.classes[i].body {
            ClassBody::Interior { forwards } => forwards.as_slice(),
            ClassBody::Terminal { .. } => &[],
        };
        // out_deg[i] = forwards of i into unresolved classes. The
        // dependents of class j, one entry per forward into it, are
        // dependents[start[j]..start[j + 1]]; a class forwarding twice to
        // j is released once, at its second entry.
        let mut out_deg: Vec<usize> = (0..n).map(|i| forwards(i).len()).collect();
        let mut start = vec![0usize; n + 1];
        for f in (0..n).flat_map(forwards) {
            start[f.to.0 + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut dependents = vec![0usize; start[n]];
        for i in 0..n {
            for f in forwards(i) {
                dependents[next[f.to.0]] = i;
                next[f.to.0] += 1;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| out_deg[i] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &d in &dependents[start[i]..start[i + 1]] {
                out_deg[d] -= 1;
                if out_deg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Solves for every class's service and waiting time at source rate
    /// `lambda0` (every class at `lambda · λ₀`).
    ///
    /// * `warm` threads sweep state: the cyclic solve is seeded with the
    ///   previous converged vector and runs the accelerated iteration, and
    ///   on success the state is refreshed for the next sweep point (see
    ///   [`WarmStart`]). A failed point leaves it untouched, so the next
    ///   point still seeds from the last convergent one.
    /// * `telemetry` receives the solver's convergence trace
    ///   (per-evaluation residual, damping, Aitken outcomes — empty when
    ///   the class graph is a DAG and no iteration runs) and, on success,
    ///   the per-station breakdown of the solution at `lambda0`. Any
    ///   previous contents are replaced. Tracing only records: the solved
    ///   values are bit-for-bit those of the untraced solve.
    ///
    /// # Errors
    ///
    /// Spec errors (a non-finite or negative `lambda0` is "invalid message
    /// rate"), saturation at any station (naming the saturated class), or
    /// fixed-point divergence (cyclic graphs near saturation). On error
    /// the telemetry holds whatever trace accumulated before the failure
    /// and no station rows.
    pub fn solve(
        &self,
        lambda0: f64,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<Solution> {
        self.solve_at(lambda0, None, options, warm, telemetry)
    }

    /// [`Self::solve`] at source rate `t`. `order` is this spec's
    /// [`Self::reverse_topological_order`] when the caller keeps one for
    /// repeated solves; `None` resolves the order here.
    pub(crate) fn solve_at(
        &self,
        t: f64,
        order: Option<&[usize]>,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<Solution> {
        let [plain, ..] = ladder(warm.is_some());
        let Some(tel) = telemetry else {
            return self.solve_profiled(t, order, options, warm, None, plain);
        };
        tel.reset();
        let sol = self.solve_profiled(t, order, options, warm, Some(&mut tel.solver), plain)?;
        tel.stations = self.station_breakdown(t, &sol, options)?;
        Ok(sol)
    }

    /// Per-station breakdown of a spec solved at source rate `lambda0`:
    /// for every class, its rate `lambda · λ₀`, the solved service time
    /// and wait, the lane-slot residence, the per-server utilization
    /// `λ·x̄`, and the traffic-weighted mean of the Eq. 10 blocking factors
    /// over the forwards *into* the class (each forward `i → j` weighted by
    /// the rate of worms taking it, `multiplicity × prob_each × λ_i`;
    /// classes nothing forwards into — injection channels — report 1.0).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`] (lane-residence decomposition can reject a
    /// malformed service time).
    pub fn station_breakdown(
        &self,
        lambda0: f64,
        sol: &Solution,
        options: &ModelOptions,
    ) -> Result<Vec<StationBreakdown>> {
        let n = self.classes.len();
        let mut blk_num = vec![0.0; n];
        let mut blk_den = vec![0.0; n];
        for (i, class) in self.classes.iter().enumerate() {
            if let ClassBody::Interior { forwards } = &class.body {
                for f in forwards {
                    let j = f.to.0;
                    let weight = f64::from(f.multiplicity) * f.prob_each * self.rate(i, lambda0);
                    blk_num[j] += weight * self.blocking(i, j, f.blocking_prob, options, lambda0);
                    blk_den[j] += weight;
                }
            }
        }
        let mut rows = Vec::with_capacity(n);
        for (j, class) in self.classes.iter().enumerate() {
            let (x, lambda) = (sol.service_times[j], self.rate(j, lambda0));
            rows.push(StationBreakdown {
                name: class.name.clone(),
                lambda,
                servers: class.servers,
                service_time: x,
                waiting_time: sol.waiting_times[j],
                residence: self.lane_residence(j, x, options, lambda0)?,
                utilization: lambda * x,
                inbound_blocking: if blk_den[j] > 0.0 {
                    blk_num[j] / blk_den[j]
                } else {
                    1.0
                },
            });
        }
        Ok(rows)
    }

    /// Saturation-aware solve at source rate `lambda0`, total over
    /// `λ₀ ∈ [0, ∞)`: never errors on saturation or iteration failure,
    /// returning a typed [`SolveOutcome`] instead.
    ///
    /// The solve climbs the escalation ladder (plain → heavy damping →
    /// accelerated restart). A rung that exhausts its budget, diverges or
    /// leaves the model's domain mid-solve
    /// ([`ModelError::is_domain_excursion`]) hands over to the next. A
    /// station at `ρ ≥ 1` ends the climb as `Saturated`. When the last
    /// rung fails too, divergence and domain excursions read `Saturated`
    /// and an exhausted budget `NoConvergence` (report, don't guess).
    ///
    /// `warm` is the sweep state of [`Self::solve`]; a non-converged point
    /// leaves it untouched. `telemetry` receives the solver trace of the
    /// *final* ladder attempt, one [`LadderSample`] per rung tried and the
    /// outcome's [`SolveOutcome::label`], plus the station breakdown at
    /// `lambda0` when the solve converged. Any previous contents are
    /// replaced.
    ///
    /// # Errors
    ///
    /// Only genuine usage errors: malformed specs, invalid options, a
    /// non-finite or negative `lambda0`. The load being too high is *data*
    /// ([`SolveOutcome::Saturated`]), not an error. On error the telemetry
    /// holds the ladder attempts and trace accumulated before the failure.
    pub fn solve_outcome(
        &self,
        lambda0: f64,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<SolveOutcome<Solution>> {
        self.climb_ladder(lambda0, None, options, warm, telemetry)
    }

    /// The escalation ladder of [`Self::solve_outcome`] at source rate `t`,
    /// with `order` as in [`Self::solve_at`]: the one place that decides
    /// which failures climb and what a failed climb means.
    pub(crate) fn climb_ladder(
        &self,
        t: f64,
        order: Option<&[usize]>,
        options: &ModelOptions,
        mut warm: Option<&mut WarmStart>,
        mut telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<SolveOutcome<Solution>> {
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.reset();
        }
        let mut last_error = None;
        let outcome = 'climb: {
            for rung in ladder(warm.is_some()) {
                // Each attempt overwrites the trace, leaving the decisive
                // attempt's trace in the telemetry.
                let trace = telemetry.as_deref_mut().map(|t| {
                    t.solver = SolverTrace::new();
                    &mut t.solver
                });
                let res = self.solve_profiled(t, order, options, warm.as_deref_mut(), trace, rung);
                if let Some(t) = telemetry.as_deref_mut() {
                    t.ladder.push(LadderSample {
                        rung: rung.label.to_string(),
                        succeeded: res.is_ok(),
                        detail: match &res {
                            Ok(_) => "converged".to_string(),
                            Err(e) => e.to_string(),
                        },
                    });
                }
                match res {
                    Ok(sol) => break 'climb SolveOutcome::Converged(sol),
                    // Iteration failures and mid-solve domain excursions are
                    // worth a stronger rung; `ρ ≥ 1` and usage errors are not.
                    Err(e @ ModelError::NoConvergence { .. }) => last_error = Some(e),
                    Err(e) if e.is_domain_excursion() => last_error = Some(e),
                    Err(e) if e.is_saturation() => break 'climb SolveOutcome::Saturated,
                    Err(e) => return Err(e),
                }
            }
            // Every rung failed. Divergence surviving the whole ladder is
            // the fixed point running away — past the knee — and so is a
            // domain excursion (negative/non-finite iterate) on a validated
            // spec that not even the restart rung avoided.
            match last_error {
                Some(ModelError::NoConvergence {
                    iterations,
                    residual,
                    diverged: false,
                }) => SolveOutcome::NoConvergence {
                    iterations,
                    residual,
                },
                _ => SolveOutcome::Saturated,
            }
        };
        if let Some(tel) = telemetry {
            tel.outcome = Some(outcome.label());
            if let SolveOutcome::Converged(sol) = &outcome {
                tel.stations = self.station_breakdown(t, sol, options)?;
            }
        }
        Ok(outcome)
    }

    /// Brackets the saturation knee of this spec in source rate `λ₀`:
    /// `find_knee` probes [`Self::solve_outcome`] at growing, then
    /// bisected `λ₀`, on the smallest `λ₀` whose solve no longer converges
    /// (per the full escalation ladder). Probes share one [`WarmStart`],
    /// so the bisection rides the previous feasible point's solution. The
    /// returned [`Knee::knee`] is the largest `λ₀` the warm-started probe
    /// sequence proved feasible.
    ///
    /// A DAG class graph never iterates and never reads the warm guess, so
    /// there a cold solve at or below `knee` succeeds too; every BFT,
    /// flow-built and cube spec in this workspace is one. On a cyclic spec
    /// a cold [`Self::solve_outcome`] within the bracket's tolerance of the
    /// knee can exhaust the ladder: the ring-8 spec's knee
    /// (0.004636241309…) returns `NoConvergence` cold, and so does
    /// λ₀ = 0.0046362413 just below it.
    ///
    /// # Errors
    ///
    /// Spec/usage errors as [`Self::solve_outcome`];
    /// [`ModelError::Knee`] when the spec is infeasible at
    /// `cfg.initial` or still feasible at `cfg.max` (e.g. a DAG model
    /// with no cyclic saturation inside the probed range).
    pub fn find_knee(&self, options: &ModelOptions, cfg: &KneeConfig) -> Result<Knee> {
        self.validate()?;
        let order = self.reverse_topological_order();
        let mut warm = WarmStart::new();
        let mut usage_err: Option<ModelError> = None;
        let bracket = bracket_knee(cfg, |t| {
            match self.climb_ladder(t, order.as_deref(), options, Some(&mut warm), None) {
                Ok(outcome) => outcome.is_converged(),
                Err(e) => {
                    // A usage error aborts the probe sequence; surface
                    // the first one instead of a misleading knee error.
                    usage_err.get_or_insert(e);
                    false
                }
            }
        });
        if let Some(e) = usage_err {
            return Err(e);
        }
        bracket.map_err(ModelError::Knee)
    }

    /// The injection class's service time `x̄_inj` at source rate `t`, the
    /// quantity Eq. 26 equates with `1/λ₀`: the cold service-time pass of
    /// [`Self::solve_at`] alone. It computes a station's wait only where a
    /// forward into it reads it, never the injection class's own (Eq. 24),
    /// so `x̄_inj` stays evaluable at the knee, where the source queue is
    /// exactly critical.
    pub(crate) fn injection_service_at(
        &self,
        t: f64,
        order: Option<&[usize]>,
        options: &ModelOptions,
    ) -> Result<f64> {
        let [plain, ..] = ladder(false);
        Ok(self.service_pass(t, order, options, None, None, plain)?.0[self.injection.0])
    }

    /// One rung's solve at source rate `t`: the service-time pass,
    /// then every class's wait at its solved service time.
    fn solve_profiled(
        &self,
        t: f64,
        order: Option<&[usize]>,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        trace: Option<&mut SolverTrace>,
        profile: SolveProfile,
    ) -> Result<Solution> {
        let (x, iterations) =
            self.service_pass(t, order, options, warm.as_deref(), trace, profile)?;
        let n = x.len();
        let mut w = vec![0.0; n];
        for i in 0..n {
            // Waits are evaluated at the lane residence, matching the
            // service equation (identity at L = 1).
            let r = self.lane_residence(i, x[i], options, t)?;
            w[i] = self.station_wait(i, r, options, t)?;
        }
        if let Some(state) = warm {
            state.guess = Some(x.clone());
            state.total_iterations += iterations;
            state.solves += 1;
        }
        Ok(Solution {
            service_times: x,
            waiting_times: w,
            iterations,
        })
    }

    /// Solves Eq. 11 for every class's service time at source rate `t`:
    /// one backward sweep on a DAG, the rung's fixed-point iteration
    /// otherwise. Returns the service times and the iterations used.
    fn service_pass(
        &self,
        t: f64,
        order: Option<&[usize]>,
        options: &ModelOptions,
        warm: Option<&WarmStart>,
        trace: Option<&mut SolverTrace>,
        profile: SolveProfile,
    ) -> Result<(Vec<f64>, usize)> {
        self.validate()?;
        options.check_lanes()?;
        if !(t.is_finite() && t >= 0.0) {
            return Err(ModelError::Spec(format!("invalid message rate {t}")));
        }
        let n = self.classes.len();
        // Seed from the previous sweep point when its spec had the same
        // shape; fall back to the cold start `x̄ = s/f` everywhere. A
        // restart rung forces the cold seed (a poisoned warm guess can be
        // exactly what kept the earlier rungs from converging).
        let seed: Vec<f64> = match warm {
            Some(w) if !profile.cold_seed => match &w.guess {
                Some(g) if g.len() == n => g.clone(),
                _ => vec![self.worm_flits; n],
            },
            _ => vec![self.worm_flits; n],
        };
        let mut x = seed;
        // Resolve the order here unless the caller keeps one.
        let resolved = order.map_or_else(|| self.reverse_topological_order(), |_| None);
        if let Some(order) = order.or(resolved.as_deref()) {
            for &i in order {
                x[i] = self.service_equation(i, &x, options, t)?;
            }
            return Ok((x, 0));
        }
        let cfg = FixedPointConfig {
            tolerance: 1e-12,
            max_iterations: 20_000,
            damping: profile.damping,
        };
        let mut deferred: Result<()> = Ok(());
        let map = |cur: &[f64], next: &mut [f64]| {
            for (i, slot) in next.iter_mut().enumerate() {
                match self.service_equation(i, cur, options, t) {
                    Ok(v) => *slot = v,
                    Err(e) => {
                        deferred = Err(e.clone());
                        return Err(QueueingError::Saturated {
                            utilization: f64::INFINITY,
                        });
                    }
                }
            }
            Ok(())
        };
        let outcome = if profile.accelerated {
            fixed_point_accelerated(&x, cfg, map, trace)
        } else {
            fixed_point(&x, cfg, map, trace)
        };
        match outcome {
            Ok(out) => Ok((out.values, out.iterations)),
            Err(e) => {
                deferred?;
                Err(match e {
                    QueueingError::NoConvergence {
                        iterations,
                        residual,
                    } => ModelError::NoConvergence {
                        iterations,
                        residual,
                        diverged: false,
                    },
                    QueueingError::Diverged {
                        iterations,
                        residual,
                    } => ModelError::NoConvergence {
                        iterations,
                        residual,
                        diverged: true,
                    },
                    other => ModelError::Spec(format!("fixed point failed: {other}")),
                })
            }
        }
    }

    /// Average latency at source rate `lambda0` via Eq. 2/25:
    /// `L = W_inj + x̄_inj + D̄ − 1`. `warm` is the sweep state of
    /// [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn latency(
        &self,
        lambda0: f64,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
    ) -> Result<crate::bft::LatencyBreakdown> {
        let sol = self.solve_at(lambda0, None, options, warm, None)?;
        self.breakdown(&sol, &[self.injection], options, lambda0)
    }

    /// Eq. 2/25 over the `injections` classes of a solve at source rate
    /// `t`: the mean injection wait and hold, plus `D̄ − 1`.
    /// With lanes the wait is already the M/G/L lane-slot wait
    /// (all-lanes-busy priced by its occupancy distribution) and the hold
    /// is the multiplex-stretched residence; both are exact identities at
    /// `L = 1`.
    pub(crate) fn breakdown(
        &self,
        sol: &Solution,
        injections: &[ClassId],
        options: &ModelOptions,
        t: f64,
    ) -> Result<crate::bft::LatencyBreakdown> {
        let (mut w_sum, mut x_sum) = (0.0, 0.0);
        for inj in injections {
            w_sum += sol.waiting_times[inj.0];
            x_sum += self.lane_residence(inj.0, sol.service_times[inj.0], options, t)?;
        }
        let n = injections.len() as f64;
        Ok(crate::bft::LatencyBreakdown::new(
            w_sum / n,
            x_sum / n,
            self.avg_distance,
        ))
    }
}

/// Builds the butterfly fat-tree class specification of paper §3 per unit
/// source rate, with the uniform-traffic rates of Eqs. 14/15: the spec
/// [`crate::bft::BftModel`] solves.
///
/// Class layout, for an `n`-level tree: down class `⟨l, l−1⟩` is class
/// `l − 1` for `l ∈ 1..=n` (`⟨1, 0⟩` is the ejection channel), and up
/// class `⟨l, l+1⟩` is class `n + l` for `l ∈ 0..n` (`⟨0, 1⟩` is the
/// injection channel).
#[must_use]
pub fn bft_spec(params: &wormsim_topology::bft::BftParams, worm_flits: f64) -> NetworkSpec {
    let n = params.levels() as usize;
    let c = params.children() as f64;
    // Eq. 14: up class ⟨l, l+1⟩ carries P↑_l·(c/p)ˡ per channel and unit
    // source rate (1 at injection, where P↑₀ = 1); by Eq. 15 down class
    // ⟨l+1, l⟩ carries the same.
    let ratio = c / params.parents() as f64;
    let up_rate = |l: usize| params.p_up(l as u32) * ratio.powi(l as i32);

    let down_idx = |l: usize| ClassId(l - 1);
    let up_idx = |l: usize| ClassId(n + l);
    let mut classes = Vec::with_capacity(2 * n);

    // Down classes.
    for l in 1..=n {
        let body = if l == 1 {
            ClassBody::Terminal {
                service_time: worm_flits,
            }
        } else {
            // ⟨l, l−1⟩ forwards to one of c children ⟨l−1, l−2⟩.
            ClassBody::Interior {
                forwards: vec![Forward::flat(
                    down_idx(l - 1),
                    params.children() as u32,
                    1.0 / c,
                )],
            }
        };
        classes.push(ClassSpec {
            name: format!("<{},{}>", l, l - 1),
            lambda: up_rate(l - 1),
            servers: 1,
            body,
        });
    }
    // Up classes (including injection at l = 0).
    for l in 0..n {
        let lu = l as u32;
        let arriving_level = lu + 1; // the switch level this channel enters
        let p_up = params.p_up(arriving_level);
        let p_down = params.p_down(arriving_level);
        let mut forwards = Vec::new();
        if arriving_level < params.levels() {
            forwards.push(Forward::flat(up_idx(l + 1), 1, p_up));
        }
        // Downward continuation through c−1 siblings ⟨arr, arr−1⟩.
        forwards.push(Forward::flat(
            down_idx(arriving_level as usize),
            params.children() as u32 - 1,
            p_down / (c - 1.0),
        ));
        classes.push(ClassSpec {
            name: if l == 0 {
                "<0,1>".to_string()
            } else {
                format!("<{},{}>", l, l + 1)
            },
            lambda: up_rate(l),
            servers: if l == 0 { 1 } else { params.parents() as u32 },
            body: ClassBody::Interior { forwards },
        });
    }

    NetworkSpec {
        classes,
        worm_flits,
        injection: up_idx(0),
        avg_distance: params.average_distance(),
    }
}

/// Builds the class spec of a unidirectional `k`-node ring under uniform
/// traffic — the canonical **cyclic** dependency graph.
///
/// Tree-ups/downs and dimension-ordered cubes all yield DAG class graphs
/// that resolve in one backward pass; a ring's channels form a dependency
/// cycle (`ring₀ → ring₁ → … → ring₀`), so Eq. 11 must be solved by
/// fixed-point iteration. This makes the ring the exemplar network for the
/// warm-started sweep machinery ([`WarmStart`]): it is what the
/// iteration-count regression tests sweep.
///
/// Model: each node sends its worms to a destination uniform over the
/// other `k − 1` nodes, so ring hops per message are uniform on `1..k−1`
/// with mean `D = k/2`. Per-channel class rates per unit source rate
/// follow by symmetry (`λ_ring = D`), and a worm leaving a ring channel
/// continues to the next one with the aggregate probability `(D−1)/D` or
/// ejects with `1/D`.
///
/// # Errors
///
/// [`ModelError::Spec`] when `k < 3` (a 2-ring has no cycle) or the worm
/// length is not finite and positive.
pub fn ring_spec(k: usize, worm_flits: f64) -> Result<NetworkSpec> {
    if k < 3 {
        return Err(ModelError::Spec(format!(
            "a ring needs at least 3 nodes to form a cycle, got {k}"
        )));
    }
    if !(worm_flits.is_finite() && worm_flits > 0.0) {
        return Err(ModelError::Spec(format!(
            "invalid worm length {worm_flits}"
        )));
    }
    let d = k as f64 / 2.0;
    let p_continue = (d - 1.0) / d;
    let p_eject = 1.0 / d;
    // Class layout: 0 = ejection, 1..=k the ring channels, k+1 = injection.
    let eject = ClassId(0);
    let ring = |i: usize| ClassId(1 + (i % k));
    let mut classes = Vec::with_capacity(k + 2);
    classes.push(ClassSpec {
        name: "eject".into(),
        lambda: 1.0,
        servers: 1,
        body: ClassBody::Terminal {
            service_time: worm_flits,
        },
    });
    for i in 0..k {
        classes.push(ClassSpec {
            name: format!("ring{i}"),
            lambda: d,
            servers: 1,
            body: ClassBody::Interior {
                forwards: vec![
                    Forward::flat(ring(i + 1), 1, p_continue),
                    Forward::flat(eject, 1, p_eject),
                ],
            },
        });
    }
    classes.push(ClassSpec {
        name: "inject".into(),
        lambda: 1.0,
        servers: 1,
        body: ClassBody::Interior {
            forwards: vec![Forward::flat(ring(0), 1, 1.0)],
        },
    });
    Ok(NetworkSpec {
        classes,
        worm_flits,
        injection: ClassId(k + 1),
        // Injection + D ring hops + ejection.
        avg_distance: d + 2.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::bft::BftParams;

    /// A simple two-hop line network per unit source rate: injection →
    /// middle link → ejection.
    fn line_spec(s: f64) -> NetworkSpec {
        NetworkSpec {
            classes: vec![
                ClassSpec {
                    name: "eject".into(),
                    lambda: 1.0,
                    servers: 1,
                    body: ClassBody::Terminal { service_time: s },
                },
                ClassSpec {
                    name: "mid".into(),
                    lambda: 1.0,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![Forward::flat(ClassId(0), 1, 1.0)],
                    },
                },
                ClassSpec {
                    name: "inject".into(),
                    lambda: 1.0,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![Forward::flat(ClassId(1), 1, 1.0)],
                    },
                },
            ],
            worm_flits: s,
            injection: ClassId(2),
            avg_distance: 3.0,
        }
    }

    #[test]
    fn line_network_resolves_backwards() {
        let spec = line_spec(16.0);
        spec.validate().unwrap();
        let sol = spec
            .solve(0.01, &ModelOptions::paper(), None, None)
            .unwrap();
        assert_eq!(sol.iterations, 0, "line network is a DAG");
        // Ejection service is fixed.
        assert_eq!(sol.service_times[0], 16.0);
        // Each upstream hop adds a (blocked) wait.
        assert!(sol.service_times[1] >= sol.service_times[0]);
        assert!(sol.service_times[2] >= sol.service_times[1]);
        // With single input per link, Eq. 10 gives P = 0: no waiting added.
        // (λ_in == λ_out and R == 1 ⇒ P = 1 − 1 = 0.)
        assert_eq!(sol.service_times[1], 16.0);
        assert_eq!(sol.service_times[2], 16.0);
    }

    #[test]
    fn line_without_blocking_correction_accumulates_waits() {
        let sol = line_spec(16.0)
            .solve(0.01, &ModelOptions::no_blocking_correction(), None, None)
            .unwrap();
        assert!(
            sol.service_times[2] > 16.0,
            "P=1 must add waiting at every hop"
        );
    }

    #[test]
    fn zero_load_framework_latency_is_s_plus_d_minus_one() {
        let lat = line_spec(16.0)
            .latency(0.0, &ModelOptions::paper(), None)
            .unwrap();
        assert!((lat.total - (16.0 + 3.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn bft_class_order_is_down_chain_then_up_chain() {
        // ⟨1,0⟩ … ⟨4,3⟩, then ⟨3,4⟩ … ⟨0,1⟩; a class forwarding twice to
        // one target is released once.
        let mut spec = bft_spec(&BftParams::paper(256).unwrap(), 16.0);
        let down_then_up = Some(vec![0, 1, 2, 3, 7, 6, 5, 4]);
        assert_eq!(spec.reverse_topological_order(), down_then_up);
        if let ClassBody::Interior { forwards } = &mut spec.classes[4].body {
            forwards.push(forwards[1]);
        }
        assert_eq!(spec.reverse_topological_order(), down_then_up);
    }

    #[test]
    fn bft_spec_is_a_dag() {
        let params = BftParams::paper(256).unwrap();
        let spec = bft_spec(&params, 32.0);
        let sol = spec
            .solve(0.001, &ModelOptions::paper(), None, None)
            .unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cyclic_spec_falls_back_to_fixed_point() {
        // Two classes forwarding to each other 50/50 with an escape to a
        // terminal — a cycle the DAG path cannot order. Its rates are
        // absolute, so it is solved at λ₀ = 1.
        let s = 8.0;
        let spec = NetworkSpec {
            classes: vec![
                ClassSpec {
                    name: "eject".into(),
                    lambda: 0.01,
                    servers: 1,
                    body: ClassBody::Terminal { service_time: s },
                },
                ClassSpec {
                    name: "a".into(),
                    lambda: 0.01,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![
                            Forward::flat(ClassId(2), 1, 0.5),
                            Forward::flat(ClassId(0), 1, 0.5),
                        ],
                    },
                },
                ClassSpec {
                    name: "b".into(),
                    lambda: 0.01,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![
                            Forward::flat(ClassId(1), 1, 0.5),
                            Forward::flat(ClassId(0), 1, 0.5),
                        ],
                    },
                },
                ClassSpec {
                    name: "inject".into(),
                    lambda: 0.01,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![Forward::flat(ClassId(1), 1, 1.0)],
                    },
                },
            ],
            worm_flits: s,
            injection: ClassId(3),
            avg_distance: 4.0,
        };
        spec.validate().unwrap();
        let sol = spec.solve(1.0, &ModelOptions::paper(), None, None).unwrap();
        assert!(sol.iterations > 0, "cycle must engage the fixed point");
        // The fixed point must satisfy the service equations.
        for i in 0..spec.classes.len() {
            let rhs = spec
                .service_equation(i, &sol.service_times, &ModelOptions::paper(), 1.0)
                .unwrap();
            assert!(
                (sol.service_times[i] - rhs).abs() < 1e-8,
                "class {i}: {} vs {rhs}",
                sol.service_times[i]
            );
        }
    }

    #[test]
    fn ring_spec_is_cyclic_and_consistent() {
        let spec = ring_spec(8, 16.0).unwrap();
        spec.validate().unwrap();
        assert!(
            spec.reverse_topological_order().is_none(),
            "a ring's class graph must be cyclic"
        );
        let sol = spec
            .solve(0.003, &ModelOptions::paper(), None, None)
            .unwrap();
        assert!(sol.iterations > 0, "cyclic graph engages the fixed point");
        // The converged vector satisfies the service equations.
        for i in 0..spec.classes.len() {
            let rhs = spec
                .service_equation(i, &sol.service_times, &ModelOptions::paper(), 0.003)
                .unwrap();
            assert!((sol.service_times[i] - rhs).abs() < 1e-8);
        }
        // Symmetry: all ring classes converge to the same service time.
        for i in 2..=8 {
            assert!((sol.service_times[i] - sol.service_times[1]).abs() < 1e-8);
        }
        // Zero load collapses to s everywhere and L = s + D̄ − 1.
        let lat = spec.latency(0.0, &ModelOptions::paper(), None).unwrap();
        assert!((lat.total - (16.0 + 6.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn warm_started_sweep_matches_cold_and_saves_iterations() {
        // Ascending load sweep on the cyclic ring: warm solves must land on
        // the cold-start vectors to 1e-9 and spend strictly fewer
        // iterations on the vast majority of interior points.
        // Up to ~95% of the ring-12 knee (λ₀ ≈ 0.0029).
        let loads: Vec<f64> = (1..=20).map(|i| 0.00014 * f64::from(i)).collect();
        let opts = ModelOptions::paper();
        let mut warm = WarmStart::new();
        let mut cold_total = 0usize;
        let mut strictly_lower = 0usize;
        let spec = ring_spec(12, 16.0).unwrap();
        for (pi, &lambda0) in loads.iter().enumerate() {
            let cold = spec.solve(lambda0, &opts, None, None).unwrap();
            let hot = spec.solve(lambda0, &opts, Some(&mut warm), None).unwrap();
            cold_total += cold.iterations;
            for (a, b) in cold.service_times.iter().zip(&hot.service_times) {
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                    "λ0={lambda0}: cold {a} vs warm {b}"
                );
            }
            if pi > 0 && hot.iterations < cold.iterations {
                strictly_lower += 1;
            }
        }
        assert!(
            strictly_lower as f64 >= 0.8 * (loads.len() - 1) as f64,
            "warm start lower on only {strictly_lower}/19 interior points"
        );
        assert!(
            (warm.total_iterations() as f64) < 0.7 * cold_total as f64,
            "sweep iterations: warm {} vs cold {cold_total}",
            warm.total_iterations()
        );
        assert_eq!(warm.solves(), loads.len());
        assert!(warm.last_values().is_some());
    }

    #[test]
    fn warm_start_survives_a_saturated_point_and_shape_changes() {
        let opts = ModelOptions::paper();
        let mut warm = WarmStart::new();
        let ring = ring_spec(8, 16.0).unwrap();
        ring.solve(0.002, &opts, Some(&mut warm), None).unwrap();
        let seeded = warm.last_values().unwrap().to_vec();
        // Far past the knee: the solve fails, the cache stays intact.
        assert!(ring.solve(0.5, &opts, Some(&mut warm), None).is_err());
        assert_eq!(warm.last_values().unwrap(), seeded.as_slice());
        // A different class count cannot reuse the guess but must still
        // solve correctly from the cold seed.
        let other = ring_spec(6, 16.0).unwrap();
        let via_warm = other.solve(0.002, &opts, Some(&mut warm), None).unwrap();
        let via_cold = other.solve(0.002, &opts, None, None).unwrap();
        for (a, b) in via_warm.service_times.iter().zip(&via_cold.service_times) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_on_a_dag_is_a_no_op_that_still_matches() {
        // BFT specs are DAGs (0 iterations); warm solving must change
        // nothing about the answer.
        let params = BftParams::paper(64).unwrap();
        let mut warm = WarmStart::new();
        let spec = bft_spec(&params, 16.0);
        for lambda0 in [0.0005, 0.001, 0.0015] {
            let cold = spec.latency(lambda0, &ModelOptions::paper(), None).unwrap();
            let hot = spec
                .latency(lambda0, &ModelOptions::paper(), Some(&mut warm))
                .unwrap();
            assert_eq!(cold.total.to_bits(), hot.total.to_bits());
        }
        assert_eq!(warm.total_iterations(), 0);
    }

    #[test]
    fn traced_solve_is_bit_identical_and_captures_convergence() {
        // Cyclic spec → fixed-point iteration → a non-empty trace whose
        // values change nothing about the solution.
        let spec = ring_spec(8, 16.0).unwrap();
        let opts = ModelOptions::paper();
        let plain = spec.solve(0.002, &opts, None, None).unwrap();
        let mut tel = ModelTelemetry::default();
        let traced = spec.solve(0.002, &opts, None, Some(&mut tel)).unwrap();
        assert_eq!(plain.iterations, traced.iterations);
        for (a, b) in plain.service_times.iter().zip(&traced.service_times) {
            assert_eq!(a.to_bits(), b.to_bits(), "tracing perturbed the solve");
        }
        for (a, b) in plain.waiting_times.iter().zip(&traced.waiting_times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(tel.solver.converged);
        assert_eq!(tel.solver.len(), plain.iterations);
        assert!(tel.solver.final_residual <= 1e-12);
        // Residuals decrease overall: last strictly below first.
        let first = tel.solver.samples.first().unwrap().residual;
        let last = tel.solver.samples.last().unwrap().residual;
        assert!(last < first, "residual did not shrink: {first} -> {last}");
        assert_eq!(tel.stations.len(), spec.classes.len());
        for row in &tel.stations {
            assert!(row.utilization >= 0.0 && row.utilization < 1.0);
            assert!((0.0..=1.0).contains(&row.inbound_blocking));
            assert!(row.residence >= 0.0 && row.waiting_time >= 0.0);
        }
        // The injection class has no inbound forwards → neutral factor.
        let inj = &tel.stations[spec.injection.0];
        assert_eq!(inj.inbound_blocking, 1.0);
    }

    #[test]
    fn traced_warm_solve_matches_and_records_aitken_activity() {
        let opts = ModelOptions::paper();
        let mut warm_a = WarmStart::new();
        let mut warm_b = WarmStart::new();
        let mut tel = ModelTelemetry::default();
        let spec = ring_spec(10, 16.0).unwrap();
        for lambda0 in [0.001, 0.0015, 0.002] {
            let plain = spec.solve(lambda0, &opts, Some(&mut warm_a), None).unwrap();
            let traced = spec
                .solve(lambda0, &opts, Some(&mut warm_b), Some(&mut tel))
                .unwrap();
            assert_eq!(plain.iterations, traced.iterations);
            for (a, b) in plain.service_times.iter().zip(&traced.service_times) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(tel.solver.converged);
            assert!(!tel.solver.is_empty());
        }
        assert_eq!(warm_a.total_iterations(), warm_b.total_iterations());
    }

    #[test]
    fn traced_dag_solve_leaves_trace_empty_but_fills_stations() {
        let params = BftParams::paper(64).unwrap();
        let spec = bft_spec(&params, 16.0);
        let mut tel = ModelTelemetry::default();
        let sol = spec
            .solve(0.001, &ModelOptions::paper(), None, Some(&mut tel))
            .unwrap();
        assert_eq!(sol.iterations, 0, "BFT class graph is a DAG");
        assert!(tel.solver.is_empty(), "no iteration ran, no samples");
        assert_eq!(tel.stations.len(), spec.classes.len());
        // Interior stations see real blocking factors under paper options.
        assert!(tel
            .stations
            .iter()
            .any(|s| s.inbound_blocking < 1.0 && s.inbound_blocking > 0.0));
        // Breakdown values come straight from the solution.
        for (row, (x, w)) in tel
            .stations
            .iter()
            .zip(sol.service_times.iter().zip(&sol.waiting_times))
        {
            assert_eq!(row.service_time.to_bits(), x.to_bits());
            assert_eq!(row.waiting_time.to_bits(), w.to_bits());
            assert_eq!(row.residence.to_bits(), x.to_bits(), "L = 1: residence = x̄");
        }
    }

    #[test]
    fn validation_catches_bad_specs() {
        let good = line_spec(16.0);
        assert!(good.validate().is_ok());

        let mut bad = line_spec(16.0);
        bad.worm_flits = -1.0;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        bad.avg_distance = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        bad.injection = ClassId(99);
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        if let ClassBody::Interior { forwards } = &mut bad.classes[2].body {
            forwards[0].prob_each = 0.7; // probabilities no longer total 1
        }
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        bad.classes[1].lambda = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        if let ClassBody::Interior { forwards } = &mut bad.classes[2].body {
            forwards[0].to = ClassId(2); // self-loop
        }
        assert!(bad.validate().is_err());

        let mut bad = line_spec(16.0);
        bad.classes[2].servers = 2; // multi-server injection
        assert!(bad.validate().is_err());
    }

    #[test]
    fn saturation_surfaces_with_class_name() {
        // Drive the middle link past ρ = 1.
        let spec = line_spec(16.0);
        let err = spec
            .solve(0.2, &ModelOptions::paper(), None, None) // ρ = 3.2
            .unwrap_err();
        match err {
            ModelError::Queueing { class, .. } => {
                assert!(["mid", "eject", "inject"].contains(&class.as_str()));
            }
            other => panic!("expected queueing error, got {other}"),
        }
    }

    #[test]
    fn solve_outcome_is_total_across_the_load_axis() {
        let opts = ModelOptions::paper();
        // Below the knee: converged, same values as the plain solve.
        let spec = ring_spec(8, 16.0).unwrap();
        let outcome = spec.solve_outcome(0.002, &opts, None, None).unwrap();
        let plain = spec.solve(0.002, &opts, None, None).unwrap();
        match &outcome {
            SolveOutcome::Converged(sol) => {
                for (a, b) in sol.service_times.iter().zip(&plain.service_times) {
                    assert_eq!(a.to_bits(), b.to_bits(), "outcome path perturbed the solve");
                }
            }
            other => panic!("sub-knee load must converge, got {other:?}"),
        }
        // Far past the knee: Saturated, not an error and not a panic.
        assert!(spec
            .solve_outcome(0.5, &opts, None, None)
            .unwrap()
            .is_saturated());
        // A genuine usage error is still an error: a malformed spec, or a
        // non-finite or negative λ₀ on any entry point.
        let mut bad = spec.clone();
        bad.classes[1].lambda = f64::NAN;
        assert!(bad.solve_outcome(0.002, &opts, None, None).is_err());
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let results = [
                spec.solve(bad, &opts, None, None).map(drop),
                spec.solve_outcome(bad, &opts, None, None).map(drop),
                spec.latency(bad, &opts, None).map(drop),
            ];
            for r in results {
                let typed =
                    matches!(&r, Err(ModelError::Spec(m)) if m.starts_with("invalid message rate"));
                assert!(typed, "λ₀ = {bad}: {r:?}");
            }
        }
    }

    #[test]
    fn solve_outcome_telemetry_records_ladder_and_outcome() {
        let opts = ModelOptions::paper();
        let mut tel = ModelTelemetry::default();
        let ring = ring_spec(8, 16.0).unwrap();

        let ok = ring
            .solve_outcome(0.002, &opts, None, Some(&mut tel))
            .unwrap();
        assert!(ok.is_converged());
        assert_eq!(tel.outcome, Some("converged"));
        assert_eq!(
            tel.ladder.len(),
            1,
            "plain rung must suffice: {:?}",
            tel.ladder
        );
        assert_eq!(tel.ladder[0].rung, "plain");
        assert!(tel.ladder[0].succeeded);
        assert!(!tel.stations.is_empty());
        assert!(tel.solver.converged);

        let sat = ring
            .solve_outcome(0.5, &opts, None, Some(&mut tel))
            .unwrap();
        assert!(sat.is_saturated());
        assert_eq!(tel.outcome, Some("saturated"));
        // `ρ ≥ 1` is definitive: the climb ends at the first rung.
        assert_eq!(tel.ladder.len(), 1, "{:?}", tel.ladder);
        assert_eq!(tel.ladder[0].rung, "plain");
        assert!(!tel.ladder[0].succeeded);
        assert!(tel.stations.is_empty(), "no breakdown without a solution");
    }

    #[test]
    fn plain_solve_replaces_outcome_telemetry_left_by_an_outcome_solve() {
        // One telemetry value reused across the two entry points: the
        // plain solve must not inherit the outcome solve's classification
        // or ladder.
        let opts = ModelOptions::paper();
        let mut tel = ModelTelemetry::default();
        let ring = ring_spec(8, 16.0).unwrap();
        let sat = ring
            .solve_outcome(0.5, &opts, None, Some(&mut tel))
            .unwrap();
        assert!(sat.is_saturated());
        assert_eq!(tel.outcome, Some("saturated"));
        assert!(!tel.ladder.is_empty());
        ring.solve(0.002, &opts, None, Some(&mut tel)).unwrap();
        assert_eq!(tel.outcome, None, "stale outcome survived a plain solve");
        assert!(tel.ladder.is_empty(), "stale ladder: {:?}", tel.ladder);
        assert!(tel.solver.converged);
        assert!(!tel.stations.is_empty());
    }

    #[test]
    fn station_rows_are_priced_at_the_solved_rate() {
        // One unit-rate spec, station rows at every λ₀ it is solved at.
        let opts = ModelOptions::paper();
        let bft = bft_spec(&BftParams::paper(64).unwrap(), 16.0);
        let ring = ring_spec(8, 16.0).unwrap();
        for (spec, loads) in [(&bft, [0.0, 0.001, 0.004]), (&ring, [0.0, 0.001, 0.002])] {
            for lambda0 in loads {
                let mut tel = ModelTelemetry::default();
                let sol = spec.solve(lambda0, &opts, None, Some(&mut tel)).unwrap();
                assert_eq!(tel.stations.len(), spec.classes.len());
                let rows = tel.stations.iter().zip(&spec.classes);
                for ((row, class), x) in rows.zip(&sol.service_times) {
                    let at = format!("{} at λ₀ = {lambda0}", row.name);
                    assert_eq!(
                        row.lambda.to_bits(),
                        (class.lambda * lambda0).to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        row.utilization.to_bits(),
                        (row.lambda * x).to_bits(),
                        "{at}"
                    );
                    if lambda0 == 0.0 {
                        assert_eq!(row.lambda, 0.0, "{at}");
                    }
                }
                // The outcome solve reports the same rows.
                let mut out_tel = ModelTelemetry::default();
                assert!(spec
                    .solve_outcome(lambda0, &opts, None, Some(&mut out_tel))
                    .unwrap()
                    .is_converged());
                assert_eq!(out_tel.stations, tel.stations);
            }
        }
    }

    #[test]
    fn spec_builders_reject_invalid_inputs() {
        assert!(matches!(ring_spec(2, 16.0), Err(ModelError::Spec(_))));
        for dim in [0, 64] {
            assert!(matches!(
                crate::hypercube::hypercube_spec(dim, 16.0),
                Err(ModelError::Spec(_))
            ));
        }
        assert!(ring_spec(8, f64::NAN).is_err());
    }

    #[test]
    fn warm_outcome_solve_leaves_state_usable_past_a_saturated_point() {
        let opts = ModelOptions::paper();
        let mut warm = WarmStart::new();
        let ring = ring_spec(8, 16.0).unwrap();
        assert!(ring
            .solve_outcome(0.002, &opts, Some(&mut warm), None)
            .unwrap()
            .is_converged());
        let seeded = warm.last_values().unwrap().to_vec();
        assert!(ring
            .solve_outcome(0.5, &opts, Some(&mut warm), None)
            .unwrap()
            .is_saturated());
        assert_eq!(
            warm.last_values().unwrap(),
            seeded.as_slice(),
            "a saturated point must not poison the warm start"
        );
        assert!(ring
            .solve_outcome(0.0021, &opts, Some(&mut warm), None)
            .unwrap()
            .is_converged());
    }

    #[test]
    fn find_knee_brackets_the_ring_saturation() {
        // The ring-8 knee sits near λ₀ ≈ 0.004 (ρ_ring = λ₀·D·x̄ with
        // x̄ ≥ 16).
        let spec = ring_spec(8, 16.0).unwrap();
        let cfg = KneeConfig {
            initial: 1e-4,
            max: 1.0,
            rel_tolerance: 1e-3,
            max_probes: 200,
        };
        let knee = spec.find_knee(&ModelOptions::paper(), &cfg).unwrap();
        // Feasible side must actually solve; infeasible side must not.
        let cold = |lambda0| {
            spec.solve_outcome(lambda0, &ModelOptions::paper(), None, None)
                .unwrap()
                .is_converged()
        };
        assert!(cold(knee.knee));
        assert!(!cold(knee.first_infeasible));
        // Loose physical sanity: ρ < 1 needs λ₀ < 1/(D·s) = 1/64.
        assert!(knee.knee > 1e-3 && knee.first_infeasible < 1.0 / 64.0);
        assert!(knee.rel_width() <= 1e-3 + 1e-12);
    }

    #[test]
    fn find_knee_reports_open_brackets_as_typed_errors() {
        // A probe range that never saturates: max far below the knee.
        let spec = ring_spec(8, 16.0).unwrap();
        let cfg = KneeConfig {
            initial: 1e-5,
            max: 1e-4,
            rel_tolerance: 1e-2,
            max_probes: 50,
        };
        match spec.find_knee(&ModelOptions::paper(), &cfg) {
            Err(ModelError::Knee(wormsim_guard::KneeError::NoKneeBelowMax { .. })) => {}
            other => panic!("expected NoKneeBelowMax, got {other:?}"),
        }
        // Floor already infeasible.
        let cfg = KneeConfig {
            initial: 0.5,
            max: 2.0,
            rel_tolerance: 1e-2,
            max_probes: 50,
        };
        match spec.find_knee(&ModelOptions::paper(), &cfg) {
            Err(ModelError::Knee(wormsim_guard::KneeError::InfeasibleAtFloor { .. })) => {}
            other => panic!("expected InfeasibleAtFloor, got {other:?}"),
        }
    }
}
