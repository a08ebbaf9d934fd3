//! The pass loop: set-up repetitions, the warm-up op, timed passes, and the
//! per-op bookkeeping of failures, digests and model error.

use crate::layers::Res;
use crate::trace::{Counters, Layer, LayerTimes, Tracer};
use std::time::{Duration, Instant};

/// Workload seed used when none is given; digests are pinned at it.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Measurement time per run when none is given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 30;
/// Repetitions of a workload's fixed set-up before the passes.
pub const SETUP_REPS: usize = 5;
/// During untraced passes the set-up is repeated once more, between two ops,
/// whenever this long has passed since the last repetition: `setup_s`, the
/// median of all repetitions (a few hundred in a 30 s run), then samples the
/// host over the whole run and not only the moment before the first pass.
const SETUP_EVERY: Duration = Duration::from_millis(50);
/// Passes hashed into the digests, which is also the minimum pass count:
/// the digests then cover the same work whatever the run's length.
pub const DIGEST_PASSES: u64 = 2;
/// Keeps at most this many failure messages per run.
const MAX_MESSAGES: usize = 20;

/// splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of item `item` in pass `pass` of a run with workload seed `base`.
/// Every pass gets fresh seeds, so no result repeats across passes.
pub fn derive_seed(base: u64, pass: u64, item: u64) -> u64 {
    mix(mix(base ^ mix(pass)) ^ item)
}

/// FNV-1a over 64-bit words: a stable digest of deterministic outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in a float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in a string, length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Wall time and work of one op, taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSample {
    /// Wall time of the op.
    pub ns: u64,
    /// Of it, time in simulation calls.
    pub sim_ns: u64,
    /// Of it, time in model evaluations and knee bracketing.
    pub model_ns: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits of completed measured messages.
    pub flits: u64,
    /// Model evaluations, knee probes included.
    pub evals: u64,
}

impl OpSample {
    fn between(ns: u64, t0: &LayerTimes, c0: &Counters, t1: &LayerTimes, c1: &Counters) -> Self {
        let t = |l: Layer| t1[l as usize] - t0[l as usize];
        Self {
            ns,
            sim_ns: t(Layer::Sim),
            model_ns: t(Layer::CoreSolve) + t(Layer::Guard),
            cycles: c1.cycles_run - c0.cycles_run,
            flits: c1.flits_completed - c0.flits_completed,
            evals: (c1.solves + c1.knee_probes) - (c0.solves + c0.knee_probes),
        }
    }
}

/// What one pass recorded besides the tracer's counters.
#[derive(Debug, Clone, Default)]
pub struct PassLog {
    /// Every op, in pass order.
    pub ops: Vec<OpSample>,
    /// Ops with at least one failed check.
    pub failed_ops: u64,
    /// Failure messages (the first few).
    pub messages: Vec<String>,
    failures: u64,
    /// Per simulation, a key covering every result field, so that a traced
    /// pass can be compared with its untraced twin run by run.
    pub sim_keys: Vec<u64>,
    /// Digest of simulation outputs.
    pub sim_digest: Digest,
    /// Digest of model outputs.
    pub model_digest: Digest,
    /// |model − sim| / sim, percent, at the points the workload counts.
    pub err_pct: Vec<f64>,
}

impl PassLog {
    /// Records a failed check; the current op counts as failed.
    pub fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// One pass in progress, handed to a workload's pass function.
pub struct Pass<'a, 'h> {
    tr: &'a mut Tracer,
    log: PassLog,
    base: u64,
    index: u64,
    /// Ops still allowed (the warm-up runs one).
    op_budget: usize,
    /// Called after every op (see [`SETUP_EVERY`]).
    after_op: Option<&'h mut dyn FnMut(&mut Tracer)>,
}

impl Pass<'_, '_> {
    /// Seed of item `item` in this pass.
    pub fn seed(&self, item: u64) -> u64 {
        derive_seed(self.base, self.index, item)
    }

    /// Runs one timed op. An `Err` or any failed check counts the op as
    /// failed; the pass goes on either way. `None` when the op failed or
    /// was not run (past the warm-up's single op).
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer, &mut PassLog) -> Res<T>) -> Option<T> {
        if self.op_budget == 0 {
            return None;
        }
        self.op_budget -= 1;
        let Pass { tr, log, .. } = self;
        let before = log.failures;
        let (t0, c0) = (tr.times(), tr.counts);
        let t = Instant::now();
        let out = tr.span(Layer::Op, String::new, |tr| f(tr, log));
        let ns = elapsed_ns(t);
        log.ops
            .push(OpSample::between(ns, &t0, &c0, &tr.times(), &tr.counts));
        let out = out.map_err(|e| log.fail(e)).ok();
        if log.failures > before {
            log.failed_ops += 1;
        }
        if let Some(after_op) = self.after_op.as_mut() {
            after_op(self.tr);
        }
        out
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A finished pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass wall time.
    pub dur_ns: u64,
    /// Work counted at the layer boundaries.
    pub counts: Counters,
    /// Op times, failures, digests and model error.
    pub log: PassLog,
}

/// What a run keeps of its passes of one kind (untraced or traced), folded
/// in pass by pass so that memory does not grow with the number of passes
/// and `peak_rss_mb` does not depend on how fast the passes ran.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall time of each pass.
    pub pass_ns: Vec<u64>,
    /// Per op position in the pass, the sample with the least wall time.
    pub best_wall: Vec<OpSample>,
    /// Per op position, the sample with the least simulation time per cycle.
    pub best_sim: Vec<OpSample>,
    /// Per op position, the sample with the least model time per evaluation.
    pub best_model: Vec<OpSample>,
    /// Ops run.
    pub ops: u64,
    /// Ops with a failed check.
    pub failed_ops: u64,
    /// Work counted at the layer boundaries.
    pub counts: Counters,
    /// Model error points counted.
    pub err_n: u64,
    /// Sum of the model error points, percent.
    pub err_sum: f64,
    /// Largest model error point, percent.
    pub err_max: f64,
    /// Failure messages (the first few).
    pub messages: Vec<String>,
    /// Digest of the simulation outputs of the first [`DIGEST_PASSES`] passes.
    pub sim_digest: Digest,
    /// Digest of the model outputs of the first [`DIGEST_PASSES`] passes.
    pub model_digest: Digest,
}

/// Keeps, per op position, the sample with the smaller `key`.
fn keep_best(best: &mut Vec<OpSample>, ops: &[OpSample], first: bool, key: fn(&OpSample) -> u64) {
    if first {
        *best = ops.to_vec();
        return;
    }
    best.truncate(ops.len());
    for (b, s) in best.iter_mut().zip(ops) {
        if key(s) < key(b) {
            *b = *s;
        }
    }
}

impl RunStats {
    fn add(&mut self, p: PassRecord) {
        let first = self.pass_ns.is_empty();
        if (self.pass_ns.len() as u64) < DIGEST_PASSES {
            self.sim_digest.u64(p.log.sim_digest.value());
            self.model_digest.u64(p.log.model_digest.value());
        }
        self.pass_ns.push(p.dur_ns);
        let ops = &p.log.ops;
        keep_best(&mut self.best_wall, ops, first, |s| s.ns);
        keep_best(&mut self.best_sim, ops, first, |s| {
            s.sim_ns * 1024 / s.cycles.max(1)
        });
        keep_best(&mut self.best_model, ops, first, |s| {
            s.model_ns * 1024 / s.evals.max(1)
        });
        self.ops += ops.len() as u64;
        self.failed_ops += p.log.failed_ops;
        self.counts.add(&p.counts);
        for e in p.log.err_pct {
            self.err_n += 1;
            self.err_sum += e;
            self.err_max = self.err_max.max(e);
        }
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(p.log.messages.into_iter().take(room));
    }
}

/// Drives one workload: set-up repetitions, warm-up, then passes until the
/// measurement time is spent.
#[derive(Debug)]
pub struct Runner {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub budget: Duration,
    /// Traced run: each pass runs twice, untraced and then traced.
    pub tracing: bool,
    /// The recorder every layer call reports to.
    pub tr: Tracer,
    /// Wall time of each set-up repetition.
    pub setup_ns: Vec<u64>,
    /// Untraced passes.
    pub plain: RunStats,
    /// Traced passes (traced runs only), pairwise with the untraced ones.
    pub traced: RunStats,
    /// Run-level failures (traced-run checks, digest mismatches).
    pub problems: Vec<String>,
}

impl Runner {
    /// A runner for one workload run.
    pub fn new(seed: u64, seconds: u64, tracing: bool) -> Self {
        Self {
            seed,
            budget: Duration::from_secs(seconds),
            tracing,
            tr: Tracer::new(),
            setup_ns: Vec::new(),
            plain: RunStats::default(),
            traced: RunStats::default(),
            problems: Vec::new(),
        }
    }

    /// Builds the workload's fixed inputs [`SETUP_REPS`] times, timing
    /// each build, and keeps the last. Traced runs record the builds.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Tracer) -> Res<T>) -> Res<T> {
        self.tr.set_recording(self.tracing);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let v = self.tr.span(Layer::Setup, String::new, &mut build)?;
            self.setup_ns.push(elapsed_ns(t));
            last = Some(v);
        }
        self.tr.set_recording(false);
        last.ok_or_else(|| "no set-up repetitions".into())
    }

    /// One untimed warm-up op, then passes until the measurement time is
    /// spent (at least [`DIGEST_PASSES`]). `build` is the set-up given to
    /// [`Runner::setup`], repeated between the ops of an untraced run. A
    /// traced run runs each pass untraced and then traced with the same
    /// seeds, and checks that every output matches.
    pub fn run_passes<T>(
        &mut self,
        mut build: impl FnMut(&mut Tracer) -> Res<T>,
        mut pass: impl FnMut(&mut Pass<'_, '_>),
    ) {
        let mut samples = Vec::new();
        let mut last_setup = Instant::now();
        let mut resetup = |tr: &mut Tracer| {
            if last_setup.elapsed() >= SETUP_EVERY {
                let t = Instant::now();
                if build(tr).is_ok() {
                    samples.push(elapsed_ns(t));
                }
                last_setup = Instant::now();
            }
        };
        let _ = self.run_pass(u64::MAX, 1, false, &mut pass, None);
        let start = Instant::now();
        let mut last = Duration::ZERO;
        let mut i = 0u64;
        while i < DIGEST_PASSES || start.elapsed() + last <= self.budget {
            let t = Instant::now();
            // A traced run reports no set-up time, and re-timing it there
            // would make the untraced twin longer than the traced one.
            let after_op: Option<&mut dyn FnMut(&mut Tracer)> = if self.tracing {
                None
            } else {
                Some(&mut resetup)
            };
            let plain = self.run_pass(i, usize::MAX, false, &mut pass, after_op);
            if self.tracing {
                let mut traced = self.run_pass(i, usize::MAX, true, &mut pass, None);
                self.check_twins(i, &plain.log, &mut traced.log);
                self.traced.add(traced);
            }
            self.plain.add(plain);
            last = t.elapsed();
            i += 1;
        }
        self.setup_ns.extend(samples);
    }

    fn run_pass(
        &mut self,
        index: u64,
        op_budget: usize,
        record: bool,
        pass: &mut impl FnMut(&mut Pass<'_, '_>),
        after_op: Option<&mut dyn FnMut(&mut Tracer)>,
    ) -> PassRecord {
        self.tr.set_recording(record);
        let base = self.seed;
        let t = Instant::now();
        let log = self.tr.span(
            Layer::Pass,
            || format!("\"pass\":{index}"),
            |tr| {
                let mut p = Pass {
                    tr,
                    log: PassLog::default(),
                    base,
                    index,
                    op_budget,
                    after_op,
                };
                pass(&mut p);
                p.log
            },
        );
        let dur_ns = elapsed_ns(t);
        self.tr.set_recording(false);
        PassRecord {
            dur_ns,
            counts: self.tr.take_counts(),
            log,
        }
    }

    /// The traced twin of pass `i` must reproduce every simulation result
    /// and model output of the untraced pass; mismatching runs fail.
    fn check_twins(&mut self, i: u64, plain: &PassLog, traced: &mut PassLog) {
        let differing = plain
            .sim_keys
            .iter()
            .zip(&traced.sim_keys)
            .filter(|(a, b)| a != b)
            .count()
            + plain.sim_keys.len().abs_diff(traced.sim_keys.len());
        if differing > 0 {
            traced.failed_ops += differing as u64;
            self.problems.push(format!(
                "pass {i}: {differing} observed simulation(s) differ from the untraced run"
            ));
        }
        if plain.model_digest != traced.model_digest {
            traced.failed_ops += 1;
            self.problems
                .push(format!("pass {i}: model outputs differ in the traced run"));
        }
    }

    /// Digests of the first [`DIGEST_PASSES`] untraced passes.
    pub fn digests(&self) -> (u64, u64) {
        (
            self.plain.sim_digest.value(),
            self.plain.model_digest.value(),
        )
    }

    /// Ops attempted and ops failed, untraced and traced passes together.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.plain.ops + self.traced.ops,
            self.plain.failed_ops + self.traced.failed_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_setup(_: &mut Tracer) -> Res<()> {
        Ok(())
    }

    #[test]
    fn set_up_is_repeated_through_an_untraced_run() {
        let mut r = Runner::new(DEFAULT_SEED, 0, false);
        r.run_passes(no_setup, |p| {
            for _ in 0..3 {
                let _ = p.op(|_, _| {
                    std::thread::sleep(SETUP_EVERY / 2);
                    Ok(())
                });
            }
        });
        // Six ops of half an interval each: at least two repetitions.
        assert!(r.setup_ns.len() >= 2, "{}", r.setup_ns.len());
    }

    #[test]
    fn seeds_differ_across_passes_and_items_and_repeat() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    }

    #[test]
    fn passes_run_the_minimum_and_count_failed_ops() {
        let mut r = Runner::new(DEFAULT_SEED, 0, false);
        r.run_passes(no_setup, |p| {
            let _ = p.op(|_, _| Ok(()));
            let _ = p.op(|_, log| {
                log.check(false, || "bad".into());
                log.check(false, || "worse".into());
                Ok(())
            });
            let _: Option<()> = p.op(|_, _| Err("broken".into()));
        });
        assert_eq!(r.plain.pass_ns.len() as u64, DIGEST_PASSES);
        assert_eq!(r.plain.best_wall.len(), 3);
        assert_eq!(r.op_counts(), (3 * DIGEST_PASSES, 2 * DIGEST_PASSES));
        assert_eq!(&r.plain.messages[..3], ["bad", "worse", "broken"]);
    }

    #[test]
    fn best_samples_are_kept_per_op_position() {
        let sample = |ns| OpSample {
            ns,
            ..OpSample::default()
        };
        let mut best = Vec::new();
        keep_best(&mut best, &[sample(5), sample(9)], true, |s| s.ns);
        keep_best(&mut best, &[sample(7), sample(3)], false, |s| s.ns);
        assert_eq!(best, [sample(5), sample(3)]);
    }

    #[test]
    fn traced_twins_must_agree() {
        let mut r = Runner::new(DEFAULT_SEED, 0, true);
        r.run_passes(no_setup, |p| {
            let key = u64::from(p.tr.recording());
            let _ = p.op(|_, log| {
                log.sim_keys.push(key);
                Ok(())
            });
        });
        assert_eq!(r.traced.pass_ns.len(), r.plain.pass_ns.len());
        assert_eq!(r.problems.len(), r.plain.pass_ns.len());
        assert_eq!(r.traced.failed_ops, r.traced.pass_ns.len() as u64);
    }
}
