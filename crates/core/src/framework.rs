//! The general wormhole-routing model of paper §2, for arbitrary networks
//! described as symmetric channel classes.
//!
//! # Model inputs
//!
//! A network is specified as a set of **channel classes**. All channels of
//! a class are statistically identical by symmetry (the paper exploits the
//! same symmetry per level of the fat-tree). Each class carries:
//!
//! * the per-channel Poisson arrival rate `λ`,
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
//! (Eqs. 6/8) and `P(i|j)` the blocking correction (Eq. 10). The class
//! dependency graph is solved in reverse topological order when it is a
//! DAG (always the case for tree-ups/downs and dimension-ordered cubes);
//! otherwise a damped fixed-point iteration is used.

use crate::error::ModelError;
use crate::options::ModelOptions;
use crate::Result;
use wormsim_guard::{bracket_knee, escalate, Knee, KneeConfig, LadderOutcome, Rung, SolveOutcome};
use wormsim_obs::{LadderSample, ModelTelemetry, OutcomeKind, SolverTrace, StationBreakdown};
use wormsim_queueing::solver::{
    fixed_point, fixed_point_accelerated, AccelerationConfig, FixedPointConfig,
};
use wormsim_queueing::{mg1, mgm, QueueingError};

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
    /// Per-channel Poisson arrival rate (worms/cycle).
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

/// How one solve attempt runs its cyclic fixed point — the knob the
/// escalation ladder turns between rungs.
#[derive(Debug, Clone, Copy)]
struct SolveProfile {
    /// Damping factor θ of the Picard step `x ← (1−θ)x + θf(x)`.
    damping: f64,
    /// Use the Aitken-accelerated adaptive-damping solver.
    accelerated: bool,
    /// Ignore any warm-start guess and seed from `x̄ = s/f`.
    cold_seed: bool,
}

impl SolveProfile {
    /// The profile for one [`Rung`] of the escalation ladder.
    ///
    /// * `Plain` — the historical configuration: θ = 0.5, accelerated iff
    ///   warm-started (what [`NetworkSpec::solve`] runs).
    /// * `Damped` — θ = 0.1 plain iteration: slow, but contracts where
    ///   the θ = 0.5 map oscillates.
    /// * `AcceleratedRestart` — Aitken Δ² from a cold seed, able to land
    ///   on weakly-repelling fixed points and to escape a poisoned warm
    ///   guess.
    fn for_rung(rung: Rung, warm_started: bool) -> Self {
        match rung {
            Rung::Plain => SolveProfile {
                damping: 0.5,
                accelerated: warm_started,
                cold_seed: false,
            },
            Rung::Damped => SolveProfile {
                damping: 0.1,
                accelerated: false,
                cold_seed: false,
            },
            Rung::AcceleratedRestart => SolveProfile {
                damping: 0.5,
                accelerated: true,
                cold_seed: true,
            },
        }
    }
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

    /// Station-level waiting time for class `j` at service time `x`,
    /// honouring the multi-server, SCV and lane options.
    ///
    /// With `L > 1` lanes the station's grant capacity is its `m·L` lane
    /// slots, each held for one lane-residence: the wait for a free lane
    /// is the M/G/(m·L) wait at the combined rate — the occupancy
    /// distribution over the lane slots (Erlang C under the Lee–Longton
    /// scaling) is what prices lane availability, collapsing to the
    /// paper's M/G/m at `L = 1` (bit-for-bit: the `L = 1` branch is the
    /// original code path).
    fn station_wait(&self, j: usize, x: f64, options: &ModelOptions) -> Result<f64> {
        let class = &self.classes[j];
        let scv = options.scv.scv(x, self.worm_flits);
        let res = if options.lanes > 1 {
            if class.servers > 1 && options.multi_server_up {
                mgm::waiting_time(
                    class.servers * options.lanes,
                    f64::from(class.servers) * class.lambda,
                    x,
                    scv,
                )
            } else {
                // Per-channel view (single-server stations and the A1
                // ablation): the L lanes of one channel pool its arrivals.
                mgm::waiting_time(options.lanes, class.lambda, x, scv)
            }
        } else if class.servers > 1 && options.multi_server_up {
            mgm::waiting_time(
                class.servers,
                f64::from(class.servers) * class.lambda,
                x,
                scv,
            )
        } else {
            mg1::waiting_time(class.lambda, x, scv)
        };
        res.map_err(|e| ModelError::at(class.name.clone(), e))
    }

    /// Mean lane-residence time of a worm on a class-`j` channel: `x` with
    /// its transmission component stretched by flit multiplexing across
    /// the channel's `L` lanes (`wormsim_queueing::lanes`). Identity —
    /// bit-for-bit — at `L = 1`.
    fn lane_residence(&self, j: usize, x: f64, options: &ModelOptions) -> Result<f64> {
        if options.lanes == 1 {
            return Ok(x);
        }
        let class = &self.classes[j];
        // Terminal service can sit exactly at the s/f floor; interior
        // iterates may transiently dip below it from damping, so clamp the
        // transmission decomposition rather than erroring mid-iteration.
        let x_checked = x.max(self.worm_flits);
        wormsim_queueing::lanes::shared_link_residence(
            options.lanes,
            x_checked,
            self.worm_flits,
            class.lambda,
        )
        .map_err(|e| ModelError::at(class.name.clone(), e))
    }

    /// Crate-visible [`Self::lane_residence`] (used by the station
    /// model's per-injection breakdown).
    pub(crate) fn lane_residence_for(
        &self,
        j: usize,
        x: f64,
        options: &ModelOptions,
    ) -> Result<f64> {
        self.lane_residence(j, x, options)
    }

    /// Blocking factor `P(i|j)` of Eq. 10 for a worm from class `i`
    /// entering a station of class `j` with per-station probability `r`.
    fn blocking(&self, i: usize, j: usize, r: f64, options: &ModelOptions) -> f64 {
        if !options.blocking_correction {
            return 1.0;
        }
        let lambda_in = self.classes[i].lambda;
        let class_j = &self.classes[j];
        // Eq. 10 with λ_j the *combined* station rate m·λ_per_channel; the
        // server count cancels, leaving per-channel rates. Under the
        // single-server ablation the station degenerates to one of m
        // independent links chosen uniformly, so R per link is r/m.
        let (lambda_out, r_eff) = if class_j.servers > 1 && !options.multi_server_up {
            (class_j.lambda, r / f64::from(class_j.servers))
        } else {
            (class_j.lambda, r)
        };
        if lambda_out <= 0.0 {
            return 1.0;
        }
        (1.0 - lambda_in / lambda_out * r_eff).clamp(0.0, 1.0)
    }

    /// Eq. 11 for class `i` given current service-time estimates `x`,
    /// with the multi-lane extension: downstream service enters as the
    /// lane residence (multiplex-stretched transmissions) and the wait is
    /// the M/G/(m·L) lane-slot wait of [`Self::station_wait`], still
    /// damped by Eq. 10's blocking probability. At `lanes = 1` every term
    /// reduces to the identity and this is the paper's Eq. 11 unchanged.
    fn service_equation(&self, i: usize, x: &[f64], options: &ModelOptions) -> Result<f64> {
        match &self.classes[i].body {
            ClassBody::Terminal { service_time } => Ok(*service_time),
            ClassBody::Interior { forwards } => {
                let mut sum = 0.0;
                for f in forwards {
                    let j = f.to.0;
                    let r = self.lane_residence(j, x[j], options)?;
                    let w = self.station_wait(j, r, options)?;
                    let p = self.blocking(i, j, f.blocking_prob, options);
                    sum += f64::from(f.multiplicity) * f.prob_each * (r + p * w);
                }
                Ok(sum)
            }
        }
    }

    /// Reverse-topological order of the class dependency graph (edges
    /// `i → forward.to`), or `None` when cyclic.
    fn reverse_topological_order(&self) -> Option<Vec<usize>> {
        let n = self.classes.len();
        // out_deg[i] = number of unresolved dependencies of i.
        let mut out_deg = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, class) in self.classes.iter().enumerate() {
            if let ClassBody::Interior { forwards } = &class.body {
                // Deduplicate targets so a class forwarding twice to the
                // same target counts one dependency.
                let mut targets: Vec<usize> = forwards.iter().map(|f| f.to.0).collect();
                targets.sort_unstable();
                targets.dedup();
                out_deg[i] = targets.len();
                for t in targets {
                    dependents[t].push(i);
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| out_deg[i] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &d in &dependents[i] {
                out_deg[d] -= 1;
                if out_deg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Solves for every class's service and waiting time.
    ///
    /// * `warm` threads sweep state: the cyclic solve is seeded with the
    ///   previous converged vector and runs the accelerated iteration, and
    ///   on success the state is refreshed for the next sweep point (see
    ///   [`WarmStart`]). A failed point leaves it untouched, so the next
    ///   point still seeds from the last convergent one.
    /// * `telemetry` receives the solver's convergence trace
    ///   (per-evaluation residual, damping, Aitken outcomes — empty when
    ///   the class graph is a DAG and no iteration runs) and, on success,
    ///   the per-station breakdown of the solution. Any previous contents
    ///   are replaced. Tracing only records: the solved values are
    ///   bit-for-bit those of the untraced solve.
    ///
    /// # Errors
    ///
    /// Spec errors, saturation at any station (naming the saturated
    /// class), or fixed-point divergence (cyclic graphs near saturation).
    /// On error the telemetry holds whatever trace accumulated before the
    /// failure and no station rows.
    pub fn solve(
        &self,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<Solution> {
        let profile = SolveProfile::for_rung(Rung::Plain, warm.is_some());
        match telemetry {
            None => self.solve_profiled(options, warm, None, profile),
            Some(t) => {
                t.reset();
                let sol = self.solve_profiled(options, warm, Some(&mut t.solver), profile)?;
                t.stations = self.station_breakdown(&sol, options)?;
                Ok(sol)
            }
        }
    }

    /// Per-station breakdown of a solved spec: for every class, the
    /// solved service time and wait, the lane-slot residence, the
    /// per-server utilization `λ·x̄`, and the traffic-weighted mean of
    /// the Eq. 10 blocking factors over the forwards *into* the class
    /// (each forward `i → j` weighted by the rate of worms taking it,
    /// `multiplicity × prob_each × λ_i`; classes nothing forwards into —
    /// injection channels — report 1.0).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`] (lane-residence decomposition can reject a
    /// malformed service time).
    pub fn station_breakdown(
        &self,
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
                    let weight = f64::from(f.multiplicity) * f.prob_each * class.lambda;
                    blk_num[j] += weight * self.blocking(i, j, f.blocking_prob, options);
                    blk_den[j] += weight;
                }
            }
        }
        let mut rows = Vec::with_capacity(n);
        for (j, class) in self.classes.iter().enumerate() {
            let x = sol.service_times[j];
            rows.push(StationBreakdown {
                name: class.name.clone(),
                lambda: class.lambda,
                servers: class.servers,
                service_time: x,
                waiting_time: sol.waiting_times[j],
                residence: self.lane_residence(j, x, options)?,
                utilization: class.lambda * x,
                inbound_blocking: if blk_den[j] > 0.0 {
                    blk_num[j] / blk_den[j]
                } else {
                    1.0
                },
            });
        }
        Ok(rows)
    }

    /// Saturation-aware solve, total over load ∈ [0, ∞): never errors on
    /// saturation or iteration failure, returning a typed
    /// [`SolveOutcome`] instead. A failed attempt is retried through the
    /// escalation ladder (plain → heavy damping → accelerated restart)
    /// before the point is declared `Saturated` (station `ρ ≥ 1` or
    /// detected divergence — definitive) or `NoConvergence` (budget
    /// expired at every rung — report, don't guess).
    ///
    /// `warm` is the sweep state of [`Self::solve`]; a non-converged point
    /// leaves it untouched. `telemetry` receives the solver trace of the
    /// *final* ladder attempt, one [`LadderSample`] per rung tried and the
    /// outcome classification, plus the station breakdown when the solve
    /// converged. Any previous contents are replaced.
    ///
    /// # Errors
    ///
    /// Only genuine usage errors: malformed specs, invalid options. The
    /// load being too high is *data* ([`SolveOutcome::Saturated`]), not
    /// an error. On error the telemetry holds the ladder attempts and
    /// trace accumulated before the failure.
    pub fn solve_outcome(
        &self,
        options: &ModelOptions,
        mut warm: Option<&mut WarmStart>,
        mut telemetry: Option<&mut ModelTelemetry>,
    ) -> Result<SolveOutcome<Solution>> {
        if let Some(t) = telemetry.as_deref_mut() {
            t.reset();
        }
        let warm_started = warm.is_some();
        let mut ladder: Vec<LadderSample> = Vec::new();
        let out = escalate(
            |rung| {
                let profile = SolveProfile::for_rung(rung, warm_started);
                // Each attempt overwrites the trace, leaving the decisive
                // attempt's trace in the telemetry.
                let mut trace = telemetry.as_deref_mut().map(|t| {
                    t.solver = SolverTrace::new();
                    &mut t.solver
                });
                let res = self.solve_profiled(options, warm.as_deref_mut(), trace.take(), profile);
                ladder.push(LadderSample {
                    rung: rung.label().to_string(),
                    succeeded: res.is_ok(),
                    detail: match &res {
                        Ok(_) => "converged".to_string(),
                        Err(e) => e.to_string(),
                    },
                });
                res
            },
            // Iteration failures and mid-solve domain excursions are
            // worth a stronger rung; `ρ ≥ 1` and spec errors are not.
            |e| matches!(e, ModelError::NoConvergence { .. }) || e.is_domain_excursion(),
        );
        let saturated = (
            SolveOutcome::Saturated {
                knee_estimate: None,
            },
            OutcomeKind::Saturated,
        );
        let (outcome, kind) = match out {
            LadderOutcome::Solved { value, .. } => {
                (SolveOutcome::Converged(value), OutcomeKind::Converged)
            }
            LadderOutcome::Aborted { error, .. } if error.is_saturation() => saturated,
            LadderOutcome::Aborted { error, .. } => {
                if let Some(t) = telemetry.as_deref_mut() {
                    t.ladder = ladder;
                }
                return Err(error);
            }
            LadderOutcome::Exhausted { last_error, .. } => match last_error {
                // Divergence surviving the whole ladder is the fixed
                // point running away — past the knee. Likewise a domain
                // excursion (negative/non-finite iterate) on a validated
                // spec that not even the restart rung avoided.
                ModelError::NoConvergence { diverged: true, .. } => saturated,
                e if e.is_domain_excursion() => saturated,
                ModelError::NoConvergence {
                    iterations,
                    residual,
                    ..
                } => (
                    SolveOutcome::NoConvergence {
                        iterations,
                        residual,
                    },
                    OutcomeKind::NoConvergence,
                ),
                // The retry policy admits nothing else; stay total
                // regardless.
                e => {
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.ladder = ladder;
                    }
                    return Err(e);
                }
            },
        };
        if let Some(t) = telemetry {
            t.ladder = ladder;
            t.outcome = Some(kind);
            if let SolveOutcome::Converged(sol) = &outcome {
                t.stations = self.station_breakdown(sol, options)?;
            }
        }
        Ok(outcome)
    }

    /// Brackets the saturation knee of this spec as a **multiplier on
    /// its configured arrival rates**: `find_knee` probes copies of the
    /// spec with every `lambda` scaled by `t`, growing then bisecting on
    /// the smallest `t` whose solve no longer converges (per the full
    /// escalation ladder). Probes share one [`WarmStart`], so the
    /// bisection rides the previous feasible point's solution.
    ///
    /// For a spec built at unit rate (e.g.
    /// [`crate::flows::FlowModelSweep`]'s), the multiplier *is* the
    /// per-PE worm rate `λ₀`. The returned [`Knee::knee`] is the largest
    /// multiplier proven feasible — always safe to solve at.
    ///
    /// # Errors
    ///
    /// Spec/usage errors as [`Self::solve_outcome`];
    /// [`ModelError::Knee`] when the spec is infeasible at
    /// `cfg.initial` or still feasible at `cfg.max` (e.g. a DAG model
    /// with no cyclic saturation inside the probed range).
    pub fn find_knee(&self, options: &ModelOptions, cfg: &KneeConfig) -> Result<Knee> {
        self.validate()?;
        let mut scaled = self.clone();
        let base: Vec<f64> = self.classes.iter().map(|c| c.lambda).collect();
        let mut warm = WarmStart::new();
        let mut usage_err: Option<ModelError> = None;
        let bracket = bracket_knee(cfg, |t| {
            for (class, b) in scaled.classes.iter_mut().zip(&base) {
                class.lambda = b * t;
            }
            match scaled.solve_outcome(options, Some(&mut warm), None) {
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

    fn solve_profiled(
        &self,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
        trace: Option<&mut SolverTrace>,
        profile: SolveProfile,
    ) -> Result<Solution> {
        self.validate()?;
        if options.lanes == 0 {
            return Err(ModelError::Spec(
                "lane count must be at least 1 (ModelOptions::lanes)".into(),
            ));
        }
        let n = self.classes.len();
        // Seed from the previous sweep point when its spec had the same
        // shape; fall back to the cold start `x̄ = s/f` everywhere. A
        // restart rung forces the cold seed (a poisoned warm guess can be
        // exactly what kept the earlier rungs from converging).
        let seed: Vec<f64> = match &warm {
            Some(w) if !profile.cold_seed => match &w.guess {
                Some(g) if g.len() == n => g.clone(),
                _ => vec![self.worm_flits; n],
            },
            _ => vec![self.worm_flits; n],
        };
        let mut x = seed;
        let iterations;
        if let Some(order) = self.reverse_topological_order() {
            for &i in &order {
                x[i] = self.service_equation(i, &x, options)?;
            }
            iterations = 0;
        } else {
            let cfg = FixedPointConfig {
                tolerance: 1e-12,
                max_iterations: 20_000,
                damping: profile.damping,
            };
            let mut deferred: Result<()> = Ok(());
            let map = |cur: &[f64], next: &mut [f64]| {
                for (i, slot) in next.iter_mut().enumerate() {
                    match self.service_equation(i, cur, options) {
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
                fixed_point_accelerated(&x, cfg, AccelerationConfig::default(), map, trace)
            } else {
                fixed_point(&x, cfg, map, trace)
            };
            match outcome {
                Ok(out) => {
                    x = out.values;
                    iterations = out.iterations;
                }
                Err(e) => {
                    deferred?;
                    return Err(match e {
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
                    });
                }
            }
        }
        let mut w = vec![0.0; n];
        for i in 0..n {
            // Waits are evaluated at the lane residence, matching the
            // service equation (identity at L = 1).
            let r = self.lane_residence(i, x[i], options)?;
            w[i] = self.station_wait(i, r, options)?;
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

    /// Average latency via Eq. 2/25: `L = W_inj + x̄_inj + D̄ − 1`.
    /// `warm` is the sweep state of [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn latency(
        &self,
        options: &ModelOptions,
        warm: Option<&mut WarmStart>,
    ) -> Result<crate::bft::LatencyBreakdown> {
        let sol = self.solve(options, warm, None)?;
        self.breakdown_from(&sol, options)
    }

    fn breakdown_from(
        &self,
        sol: &Solution,
        options: &ModelOptions,
    ) -> Result<crate::bft::LatencyBreakdown> {
        let i = self.injection.0;
        // With lanes, the source wait is already the M/G/L lane-slot wait
        // (all-lanes-busy priced by its occupancy distribution) and the
        // injection hold is the multiplex-stretched residence. Both are
        // exact identities at L = 1.
        let x = self.lane_residence(i, sol.service_times[i], options)?;
        let w = sol.waiting_times[i];
        Ok(crate::bft::LatencyBreakdown {
            w_injection: w,
            x_injection: x,
            avg_distance: self.avg_distance,
            total: w + x + self.avg_distance - 1.0,
        })
    }
}

/// Per-level channel arrival rates of a butterfly fat-tree, the rate
/// input of [`bft_spec_with_rates`].
///
/// Index conventions follow [`crate::bft::ChannelAudit`]: `lambda_down[l]`
/// is the per-channel rate of class `⟨l, l−1⟩` for `l ∈ [1, n]`
/// (`lambda_down[0]` unused), `lambda_up[l]` of `⟨l, l+1⟩` for
/// `l ∈ [0, n−1]` (`lambda_up[0]` is the injection channel).
///
/// Two constructors cover the two sides of the generalization:
/// [`BftLevelRates::closed_form`] evaluates the paper's Eq. 14 (uniform
/// traffic — reproduces the historical `bft_spec` numbers bit-for-bit),
/// while [`BftLevelRates::from_flows`] aggregates a routing-induced
/// [`FlowVector`](wormsim_workload::FlowVector) by symmetry class.
#[derive(Debug, Clone, PartialEq)]
pub struct BftLevelRates {
    /// Per-channel rate of up class `⟨l, l+1⟩` at index `l` (length `n`).
    pub lambda_up: Vec<f64>,
    /// Per-channel rate of down class `⟨l, l−1⟩` at index `l`
    /// (length `n + 1`, index 0 unused).
    pub lambda_down: Vec<f64>,
    /// Average message distance `D̄` under the workload that produced the
    /// rates.
    pub avg_distance: f64,
}

impl BftLevelRates {
    /// The paper's uniform-traffic rates (Eq. 14) at source rate
    /// `lambda0`, with the closed-form `D̄`.
    #[must_use]
    pub fn closed_form(params: &wormsim_topology::bft::BftParams, lambda0: f64) -> Self {
        // Worm length does not enter the rate formulas; any positive value
        // yields the same model object for this purpose.
        let model = crate::bft::BftModel::new(*params, 1.0);
        let n = params.levels() as usize;
        Self {
            lambda_up: (0..n).map(|l| model.lambda_up(l as u32, lambda0)).collect(),
            lambda_down: (0..=n)
                .map(|l| {
                    if l == 0 {
                        0.0
                    } else {
                        model.lambda_down(l as u32, lambda0)
                    }
                })
                .collect(),
            avg_distance: params.average_distance(),
        }
    }

    /// Symmetry-class aggregation of a per-channel flow vector: each
    /// level's rate is the mean over its channels, scaled by `lambda0`.
    ///
    /// Exact for workloads that are symmetric across each level (uniform,
    /// and any pattern whose flows happen to respect the tree symmetry);
    /// an averaged approximation otherwise — use
    /// [`crate::flows::model_from_flows`] for per-station fidelity.
    ///
    /// # Errors
    ///
    /// [`ModelError::Spec`] when the flow vector was built for a different
    /// network shape.
    pub fn from_flows(
        tree: &wormsim_topology::bft::ButterflyFatTree,
        flows: &wormsim_workload::FlowVector,
        lambda0: f64,
    ) -> Result<Self> {
        use wormsim_topology::graph::ChannelClass;
        let params = tree.params();
        let n = params.levels() as usize;
        if flows.num_pes() != params.num_processors()
            || flows.num_channels() != tree.network().num_channels()
        {
            return Err(ModelError::Spec(format!(
                "flow vector shape ({} PEs, {} channels) does not match the tree",
                flows.num_pes(),
                flows.num_channels()
            )));
        }
        let mut lambda_up = vec![0.0; n];
        let mut lambda_down = vec![0.0; n + 1];
        for (class, mean, _count) in flows.class_mean_unit_flows(tree.network()) {
            match class {
                ChannelClass::Injection => lambda_up[0] = mean * lambda0,
                ChannelClass::Ejection => lambda_down[1] = mean * lambda0,
                ChannelClass::Up { from } => lambda_up[from as usize] = mean * lambda0,
                ChannelClass::Down { from } => lambda_down[from as usize] = mean * lambda0,
                ChannelClass::Dimension { .. } => {
                    return Err(ModelError::Spec(
                        "dimension channels cannot appear in a butterfly fat-tree".into(),
                    ))
                }
            }
        }
        Ok(Self {
            lambda_up,
            lambda_down,
            avg_distance: flows.avg_distance(),
        })
    }
}

/// Builds the butterfly fat-tree class specification at source rate
/// `lambda0`, mirroring paper §3 — used to cross-validate the general
/// framework against the closed-form recurrences of [`crate::bft`].
///
/// Equivalent to [`bft_spec_with_rates`] with
/// [`BftLevelRates::closed_form`], the paper's uniform-workload rates.
#[must_use]
pub fn bft_spec(
    params: &wormsim_topology::bft::BftParams,
    worm_flits: f64,
    lambda0: f64,
) -> NetworkSpec {
    bft_spec_with_rates(
        params,
        worm_flits,
        &BftLevelRates::closed_form(params, lambda0),
    )
}

/// Builds the butterfly fat-tree class specification from explicit
/// per-level rates — the generalized pipeline through which any workload's
/// flow vector (aggregated by level symmetry) reaches the Eq. 11 solver.
#[must_use]
pub fn bft_spec_with_rates(
    params: &wormsim_topology::bft::BftParams,
    worm_flits: f64,
    rates: &BftLevelRates,
) -> NetworkSpec {
    let n = params.levels() as usize;
    let c = params.children() as f64;
    assert_eq!(rates.lambda_up.len(), n, "one up rate per level");
    assert_eq!(rates.lambda_down.len(), n + 1, "one down rate per level");

    // Class layout: down[l] for l in 1..=n at indices l-1 (⟨l, l−1⟩),
    // up[l] for l in 0..n at indices n + l (⟨l, l+1⟩; l = 0 is injection).
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
            lambda: rates.lambda_down[l],
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
            lambda: rates.lambda_up[l],
            servers: if l == 0 { 1 } else { params.parents() as u32 },
            body: ClassBody::Interior { forwards },
        });
    }

    NetworkSpec {
        classes,
        worm_flits,
        injection: up_idx(0),
        avg_distance: rates.avg_distance,
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
/// Model: each node sends `lambda0` worms/cycle to a destination uniform
/// over the other `k − 1` nodes, so ring hops per message are uniform on
/// `1..k−1` with mean `D = k/2`. Per-channel class rates follow by
/// symmetry (`λ_ring = λ₀·D`), and a worm leaving a ring channel continues
/// to the next one with the aggregate probability `(D−1)/D` or ejects with
/// `1/D`.
///
/// # Errors
///
/// [`ModelError::Spec`] when `k < 3` (a 2-ring has no cycle), the worm
/// length is not finite and positive, or the rate is not finite and
/// non-negative.
pub fn ring_spec(k: usize, worm_flits: f64, lambda0: f64) -> Result<NetworkSpec> {
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
    if !(lambda0.is_finite() && lambda0 >= 0.0) {
        return Err(ModelError::Spec(format!("invalid message rate {lambda0}")));
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
        lambda: lambda0,
        servers: 1,
        body: ClassBody::Terminal {
            service_time: worm_flits,
        },
    });
    for i in 0..k {
        classes.push(ClassSpec {
            name: format!("ring{i}"),
            lambda: lambda0 * d,
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
        lambda: lambda0,
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

    /// A simple two-hop line network: injection → middle link → ejection.
    fn line_spec(lambda: f64, s: f64) -> NetworkSpec {
        NetworkSpec {
            classes: vec![
                ClassSpec {
                    name: "eject".into(),
                    lambda,
                    servers: 1,
                    body: ClassBody::Terminal { service_time: s },
                },
                ClassSpec {
                    name: "mid".into(),
                    lambda,
                    servers: 1,
                    body: ClassBody::Interior {
                        forwards: vec![Forward::flat(ClassId(0), 1, 1.0)],
                    },
                },
                ClassSpec {
                    name: "inject".into(),
                    lambda,
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
        let spec = line_spec(0.01, 16.0);
        spec.validate().unwrap();
        let sol = spec.solve(&ModelOptions::paper(), None, None).unwrap();
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
        let spec = line_spec(0.01, 16.0);
        let sol = spec
            .solve(&ModelOptions::no_blocking_correction(), None, None)
            .unwrap();
        assert!(
            sol.service_times[2] > 16.0,
            "P=1 must add waiting at every hop"
        );
    }

    #[test]
    fn zero_load_framework_latency_is_s_plus_d_minus_one() {
        let spec = line_spec(0.0, 16.0);
        let lat = spec.latency(&ModelOptions::paper(), None).unwrap();
        assert!((lat.total - (16.0 + 3.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn framework_matches_closed_form_bft() {
        // The strongest internal consistency check: the generic Eq. 11
        // solver on the per-level class graph must reproduce the paper's
        // hand-derived recurrences exactly, for every option set.
        for n_procs in [16usize, 64, 256, 1024] {
            let params = BftParams::paper(n_procs).unwrap();
            for s in [16.0, 64.0] {
                for options in [
                    ModelOptions::paper(),
                    ModelOptions::single_server_up(),
                    ModelOptions::no_blocking_correction(),
                    ModelOptions::prior_art(),
                ] {
                    for lambda0 in [0.0, 0.0005, 0.002] {
                        let closed = crate::bft::BftModel::with_options(params, s, options)
                            .latency_at_message_rate(lambda0);
                        let spec = bft_spec(&params, s, lambda0);
                        let generic = spec.latency(&options, None);
                        match (closed, generic) {
                            (Ok(a), Ok(b)) => {
                                assert!(
                                    (a.total - b.total).abs() < 1e-9 * (1.0 + a.total),
                                    "N={n_procs} s={s} λ0={lambda0} {options:?}: closed {} vs generic {}",
                                    a.total,
                                    b.total
                                );
                                assert!((a.w_injection - b.w_injection).abs() < 1e-9);
                                assert!((a.x_injection - b.x_injection).abs() < 1e-9);
                            }
                            (Err(_), Err(_)) => {} // both saturated: consistent
                            (a, b) => panic!(
                                "disagreement at N={n_procs} s={s} λ0={lambda0}: {a:?} vs {b:?}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_rates_reproduce_bft_spec_bit_for_bit() {
        // `bft_spec` is now a thin wrapper over `bft_spec_with_rates` with
        // Eq. 14 rates; both paths must agree to the last bit so the
        // Figure 2/3 numbers are untouched by the generalization.
        for n_procs in [16usize, 64, 1024] {
            let params = BftParams::paper(n_procs).unwrap();
            for lambda0 in [0.0, 0.0008, 0.0021] {
                let via_rates = bft_spec_with_rates(
                    &params,
                    32.0,
                    &BftLevelRates::closed_form(&params, lambda0),
                );
                let direct = bft_spec(&params, 32.0, lambda0);
                for (a, b) in direct.classes.iter().zip(&via_rates.classes) {
                    assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{}", a.name);
                }
                let la = direct.latency(&ModelOptions::paper(), None);
                let lb = via_rates.latency(&ModelOptions::paper(), None);
                match (la, lb) {
                    (Ok(a), Ok(b)) => assert_eq!(a.total.to_bits(), b.total.to_bits()),
                    (Err(_), Err(_)) => {}
                    other => panic!("paths disagree: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn uniform_workload_rates_reproduce_figure23_numbers() {
        // The generalized pipeline — routing-induced flow vector,
        // aggregated by level symmetry, through the same spec builder —
        // must land on the closed-form Eq. 14 rates and latencies to
        // floating-point rounding under the uniform workload.
        use wormsim_topology::bft::ButterflyFatTree;
        use wormsim_workload::{DestinationPattern, FlowVector};
        for n_procs in [16usize, 64, 256] {
            let params = BftParams::paper(n_procs).unwrap();
            let tree = ButterflyFatTree::new(params);
            let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
            for lambda0 in [0.0, 0.0005, 0.002] {
                let from_flows = BftLevelRates::from_flows(&tree, &flows, lambda0).unwrap();
                let closed = BftLevelRates::closed_form(&params, lambda0);
                for (a, b) in from_flows.lambda_up.iter().zip(&closed.lambda_up) {
                    assert!((a - b).abs() <= 1e-11 * (1.0 + b.abs()), "up {a} vs {b}");
                }
                for (a, b) in from_flows.lambda_down.iter().zip(&closed.lambda_down) {
                    assert!((a - b).abs() <= 1e-11 * (1.0 + b.abs()), "down {a} vs {b}");
                }
                assert!((from_flows.avg_distance - closed.avg_distance).abs() < 1e-9);
                let a = bft_spec_with_rates(&params, 16.0, &from_flows)
                    .latency(&ModelOptions::paper(), None);
                let b = bft_spec(&params, 16.0, lambda0).latency(&ModelOptions::paper(), None);
                match (a, b) {
                    (Ok(a), Ok(b)) => assert!(
                        (a.total - b.total).abs() < 1e-9 * (1.0 + b.total),
                        "N={n_procs} λ0={lambda0}: {} vs {}",
                        a.total,
                        b.total
                    ),
                    (Err(_), Err(_)) => {}
                    other => panic!("pipelines disagree: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bft_spec_is_a_dag() {
        let params = BftParams::paper(256).unwrap();
        let spec = bft_spec(&params, 32.0, 0.001);
        let sol = spec.solve(&ModelOptions::paper(), None, None).unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cyclic_spec_falls_back_to_fixed_point() {
        // Two classes forwarding to each other 50/50 with an escape to a
        // terminal — a cycle the DAG path cannot order.
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
        let sol = spec.solve(&ModelOptions::paper(), None, None).unwrap();
        assert!(sol.iterations > 0, "cycle must engage the fixed point");
        // The fixed point must satisfy the service equations.
        for i in 0..spec.classes.len() {
            let rhs = spec
                .service_equation(i, &sol.service_times, &ModelOptions::paper())
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
        let spec = ring_spec(8, 16.0, 0.003).unwrap();
        spec.validate().unwrap();
        assert!(
            spec.reverse_topological_order().is_none(),
            "a ring's class graph must be cyclic"
        );
        let sol = spec.solve(&ModelOptions::paper(), None, None).unwrap();
        assert!(sol.iterations > 0, "cyclic graph engages the fixed point");
        // The converged vector satisfies the service equations.
        for i in 0..spec.classes.len() {
            let rhs = spec
                .service_equation(i, &sol.service_times, &ModelOptions::paper())
                .unwrap();
            assert!((sol.service_times[i] - rhs).abs() < 1e-8);
        }
        // Symmetry: all ring classes converge to the same service time.
        for i in 2..=8 {
            assert!((sol.service_times[i] - sol.service_times[1]).abs() < 1e-8);
        }
        // Zero load collapses to s everywhere and L = s + D̄ − 1.
        let idle = ring_spec(8, 16.0, 0.0).unwrap();
        let lat = idle.latency(&ModelOptions::paper(), None).unwrap();
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
        for (pi, &lambda0) in loads.iter().enumerate() {
            let spec = ring_spec(12, 16.0, lambda0).unwrap();
            let cold = spec.solve(&opts, None, None).unwrap();
            let hot = spec.solve(&opts, Some(&mut warm), None).unwrap();
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
        ring_spec(8, 16.0, 0.002)
            .unwrap()
            .solve(&opts, Some(&mut warm), None)
            .unwrap();
        let seeded = warm.last_values().unwrap().to_vec();
        // Far past the knee: the solve fails, the cache stays intact.
        assert!(ring_spec(8, 16.0, 0.5)
            .unwrap()
            .solve(&opts, Some(&mut warm), None)
            .is_err());
        assert_eq!(warm.last_values().unwrap(), seeded.as_slice());
        // A different class count cannot reuse the guess but must still
        // solve correctly from the cold seed.
        let other = ring_spec(6, 16.0, 0.002).unwrap();
        let via_warm = other.solve(&opts, Some(&mut warm), None).unwrap();
        let via_cold = other.solve(&opts, None, None).unwrap();
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
        for lambda0 in [0.0005, 0.001, 0.0015] {
            let spec = bft_spec(&params, 16.0, lambda0);
            let cold = spec.latency(&ModelOptions::paper(), None).unwrap();
            let hot = spec
                .latency(&ModelOptions::paper(), Some(&mut warm))
                .unwrap();
            assert_eq!(cold.total.to_bits(), hot.total.to_bits());
        }
        assert_eq!(warm.total_iterations(), 0);
    }

    #[test]
    fn traced_solve_is_bit_identical_and_captures_convergence() {
        // Cyclic spec → fixed-point iteration → a non-empty trace whose
        // values change nothing about the solution.
        let spec = ring_spec(8, 16.0, 0.002).unwrap();
        let opts = ModelOptions::paper();
        let plain = spec.solve(&opts, None, None).unwrap();
        let mut tel = ModelTelemetry::default();
        let traced = spec.solve(&opts, None, Some(&mut tel)).unwrap();
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
        for lambda0 in [0.001, 0.0015, 0.002] {
            let spec = ring_spec(10, 16.0, lambda0).unwrap();
            let plain = spec.solve(&opts, Some(&mut warm_a), None).unwrap();
            let traced = spec
                .solve(&opts, Some(&mut warm_b), Some(&mut tel))
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
        let spec = bft_spec(&params, 16.0, 0.001);
        let mut tel = ModelTelemetry::default();
        let sol = spec
            .solve(&ModelOptions::paper(), None, Some(&mut tel))
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
        let good = line_spec(0.01, 16.0);
        assert!(good.validate().is_ok());

        let mut bad = line_spec(0.01, 16.0);
        bad.worm_flits = -1.0;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        bad.avg_distance = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        bad.injection = ClassId(99);
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        if let ClassBody::Interior { forwards } = &mut bad.classes[2].body {
            forwards[0].prob_each = 0.7; // probabilities no longer total 1
        }
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        bad.classes[1].lambda = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        if let ClassBody::Interior { forwards } = &mut bad.classes[2].body {
            forwards[0].to = ClassId(2); // self-loop
        }
        assert!(bad.validate().is_err());

        let mut bad = line_spec(0.01, 16.0);
        bad.classes[2].servers = 2; // multi-server injection
        assert!(bad.validate().is_err());
    }

    #[test]
    fn saturation_surfaces_with_class_name() {
        // Drive the middle link past ρ = 1.
        let spec = line_spec(0.2, 16.0); // ρ = 3.2
        let err = spec.solve(&ModelOptions::paper(), None, None).unwrap_err();
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
        let spec = ring_spec(8, 16.0, 0.002).unwrap();
        let outcome = spec.solve_outcome(&opts, None, None).unwrap();
        let plain = spec.solve(&opts, None, None).unwrap();
        match &outcome {
            SolveOutcome::Converged(sol) => {
                for (a, b) in sol.service_times.iter().zip(&plain.service_times) {
                    assert_eq!(a.to_bits(), b.to_bits(), "outcome path perturbed the solve");
                }
            }
            other => panic!("sub-knee load must converge, got {other:?}"),
        }
        // Far past the knee: Saturated, not an error and not a panic.
        let hot = ring_spec(8, 16.0, 0.5).unwrap();
        assert!(hot.solve_outcome(&opts, None, None).unwrap().is_saturated());
        // A genuine usage error is still an error.
        let mut bad = ring_spec(8, 16.0, 0.002).unwrap();
        bad.classes[1].lambda = f64::NAN;
        assert!(bad.solve_outcome(&opts, None, None).is_err());
    }

    #[test]
    fn solve_outcome_telemetry_records_ladder_and_outcome() {
        let opts = ModelOptions::paper();
        let mut tel = ModelTelemetry::default();

        let ok = ring_spec(8, 16.0, 0.002)
            .unwrap()
            .solve_outcome(&opts, None, Some(&mut tel))
            .unwrap();
        assert!(ok.is_converged());
        assert_eq!(tel.outcome, Some(wormsim_obs::OutcomeKind::Converged));
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

        let sat = ring_spec(8, 16.0, 0.5)
            .unwrap()
            .solve_outcome(&opts, None, Some(&mut tel))
            .unwrap();
        assert!(sat.is_saturated());
        assert_eq!(tel.outcome, Some(wormsim_obs::OutcomeKind::Saturated));
        assert!(!tel.ladder.is_empty());
        assert!(tel.ladder.iter().all(|a| !a.succeeded));
        assert!(tel.stations.is_empty(), "no breakdown without a solution");
    }

    #[test]
    fn plain_solve_replaces_outcome_telemetry_left_by_an_outcome_solve() {
        // One telemetry value reused across the two entry points: the
        // plain solve must not inherit the outcome solve's classification
        // or ladder.
        let opts = ModelOptions::paper();
        let mut tel = ModelTelemetry::default();
        let sat = ring_spec(8, 16.0, 0.5)
            .unwrap()
            .solve_outcome(&opts, None, Some(&mut tel))
            .unwrap();
        assert!(sat.is_saturated());
        assert_eq!(tel.outcome, Some(wormsim_obs::OutcomeKind::Saturated));
        assert!(!tel.ladder.is_empty());
        ring_spec(8, 16.0, 0.002)
            .unwrap()
            .solve(&opts, None, Some(&mut tel))
            .unwrap();
        assert_eq!(tel.outcome, None, "stale outcome survived a plain solve");
        assert!(tel.ladder.is_empty(), "stale ladder: {:?}", tel.ladder);
        assert!(tel.solver.converged);
        assert!(!tel.stations.is_empty());
    }

    #[test]
    fn spec_builders_reject_invalid_inputs() {
        assert!(matches!(
            ring_spec(2, 16.0, 0.001),
            Err(ModelError::Spec(_))
        ));
        for dim in [0, 64] {
            assert!(matches!(
                crate::hypercube::hypercube_spec(dim, 16.0, 0.001),
                Err(ModelError::Spec(_))
            ));
        }
        assert!(ring_spec(8, f64::NAN, 0.001).is_err());
        assert!(ring_spec(8, 16.0, -1.0).is_err());
    }

    #[test]
    fn warm_outcome_solve_leaves_state_usable_past_a_saturated_point() {
        let opts = ModelOptions::paper();
        let mut warm = WarmStart::new();
        assert!(ring_spec(8, 16.0, 0.002)
            .unwrap()
            .solve_outcome(&opts, Some(&mut warm), None)
            .unwrap()
            .is_converged());
        let seeded = warm.last_values().unwrap().to_vec();
        assert!(ring_spec(8, 16.0, 0.5)
            .unwrap()
            .solve_outcome(&opts, Some(&mut warm), None)
            .unwrap()
            .is_saturated());
        assert_eq!(
            warm.last_values().unwrap(),
            seeded.as_slice(),
            "a saturated point must not poison the warm start"
        );
        assert!(ring_spec(8, 16.0, 0.0021)
            .unwrap()
            .solve_outcome(&opts, Some(&mut warm), None)
            .unwrap()
            .is_converged());
    }

    #[test]
    fn find_knee_brackets_the_ring_saturation() {
        // Unit-rate ring: the knee multiplier is λ₀ itself. The ring-8
        // knee sits near λ₀ ≈ 0.004 (ρ_ring = λ₀·D·x̄ with x̄ ≥ 16).
        let spec = ring_spec(8, 16.0, 1.0).unwrap();
        let cfg = KneeConfig {
            initial: 1e-4,
            max: 1.0,
            rel_tolerance: 1e-3,
            max_probes: 200,
        };
        let knee = spec.find_knee(&ModelOptions::paper(), &cfg).unwrap();
        // Feasible side must actually solve; infeasible side must not.
        assert!(ring_spec(8, 16.0, knee.knee)
            .unwrap()
            .solve_outcome(&ModelOptions::paper(), None, None)
            .unwrap()
            .is_converged());
        assert!(!ring_spec(8, 16.0, knee.first_infeasible)
            .unwrap()
            .solve_outcome(&ModelOptions::paper(), None, None)
            .unwrap()
            .is_converged());
        // Loose physical sanity: ρ < 1 needs λ₀ < 1/(D·s) = 1/64.
        assert!(knee.knee > 1e-3 && knee.first_infeasible < 1.0 / 64.0);
        assert!(knee.rel_width() <= 1e-3 + 1e-12);
    }

    #[test]
    fn find_knee_reports_open_brackets_as_typed_errors() {
        // An idle-rate spec scaled up to `max` that never saturates
        // within range: max far below the knee.
        let spec = ring_spec(8, 16.0, 1.0).unwrap();
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
