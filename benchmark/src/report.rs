//! One workload run from start to finish: the run-level checks, the printed
//! report, the stored run record and the trace file.

use crate::bench::{Runner, DEFAULT_SEED, DIGEST_PASSES};
use crate::layers::json_is_well_formed;
use crate::metrics::{self, lookup, END_TO_END, MAX_HARNESS_SHARE};
use crate::trace::chrome_trace;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Where run records and trace files go.
    pub out: PathBuf,
}

/// File, under the output directory, that run records are appended to.
const RECORDS_FILE: &str = "runs.jsonl";

/// What a finished run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(sim_digest, model_digest)`.
    digests: (u64, u64),
    pin_note: &'static str,
    /// Per-layer metrics for a traced run, end-to-end ones otherwise.
    metrics: Vec<(&'static str, f64)>,
}

/// Runs one workload, prints its report and last-line result, stores its
/// record; returns whether every check passed.
pub fn run(args: &RunArgs) -> bool {
    let w = args.workload;
    let mut r = Runner::new(args.seed, args.seconds, args.trace);
    let set_up = w.run(&mut r);
    let (mut attempted, mut failed) = r.op_counts();
    if let Err(e) = set_up {
        attempted += 1;
        failed += 1;
        r.problems.push(format!("set-up failed: {e}"));
    }
    let rss = metrics::peak_rss_mb().unwrap_or_else(|e| {
        r.problems.push(e);
        0.0
    });
    let digests = r.digests();
    let pinned = w.pinned_digests();
    let pin_note = if args.seed != DEFAULT_SEED {
        "not pinned at this seed"
    } else if pinned == digests {
        "matches the pinned digests"
    } else {
        r.problems.push(format!(
            "digests {:016x}/{:016x} differ from the pinned {:016x}/{:016x}",
            digests.0, digests.1, pinned.0, pinned.1
        ));
        "DIFFERS from the pinned digests"
    };
    let metrics = if args.trace {
        let share = metrics::harness_share(&r);
        if share > MAX_HARNESS_SHARE {
            r.problems.push(format!(
                "harness took {:.1}% of the traced passes (limit {:.0}%)",
                100.0 * share,
                100.0 * MAX_HARNESS_SHARE
            ));
        }
        if let Err(e) = write_trace(&args.out, w, &r) {
            r.problems.push(e);
        }
        metrics::per_layer(&r)
    } else {
        metrics::end_to_end(&r, rss)
    };
    for (name, v) in &metrics {
        if !v.is_finite() {
            r.problems.push(format!("{name} is not finite"));
        }
    }
    let o = Outcome {
        correct: failed == 0 && r.problems.is_empty(),
        attempted,
        failed,
        digests,
        pin_note,
        metrics,
    };

    print!("{}", render(args, &r, &o));
    let last: Vec<(&str, f64)> = if args.trace {
        o.metrics.clone()
    } else {
        END_TO_END
            .iter()
            .filter_map(|d| o.metrics.iter().find(|m| m.0 == d.name).copied())
            .collect()
    };
    println!("{}", result_line(o.correct, o.attempted, o.failed, &last));
    if let Err(e) = append_record(&args.out, &record_line(args, &r, &o)) {
        eprintln!("wormbench: {e}");
        return false;
    }
    o.correct
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = lookup(name).map_or("", |d| d.unit);
            format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, num(*v))
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// The run record `compare` reads: one JSON object on one line.
fn record_line(args: &RunArgs, r: &Runner, o: &Outcome) -> String {
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| format!(r#""{name}":{}"#, num(*v)))
        .collect();
    format!(
        r#"{{"workload":"{}","seed":"{:#x}","seconds":{},"trace":{},"passes":{},"correct":{},"attempted":{},"failed":{},"sim_digest":"{:016x}","model_digest":"{:016x}","metrics":{{{}}}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.plain.pass_ns.len(),
        o.correct,
        o.attempted,
        o.failed,
        o.digests.0,
        o.digests.1,
        body.join(",")
    )
}

fn append_record(out: &Path, line: &str) -> Result<(), String> {
    let path = out.join(RECORDS_FILE);
    std::fs::create_dir_all(out)
        .and_then(|()| {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            f.write_all(format!("{line}\n").as_bytes())?;
            f.flush()
        })
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

fn write_trace(out: &Path, w: Workload, r: &Runner) -> Result<(), String> {
    let json = chrome_trace(r.tr.spans(), w.name());
    if !json_is_well_formed(&json) {
        return Err("the trace file is not well-formed JSON".into());
    }
    let path = out.join(format!("{}.trace.json", w.name()));
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Sample count or basis behind a printed metric.
fn basis(name: &str, r: &Runner, o: &Outcome) -> String {
    let per_pass = r.plain.best_wall.len();
    let best = format!("best of {} passes per op", r.plain.pass_ns.len());
    match name {
        "setup_s" => format!("median of {} set-ups", r.setup_ns.len()),
        "pass_s" => format!("{per_pass} ops, {best}"),
        "op_ms_p50" | "op_ms_p90" => format!("over {per_pass} ops, {best}"),
        "sim_cycles_per_s" | "sim_flits_per_s" | "model_solves_per_s" => best,
        "model_err_pct_mean" | "model_err_pct_max" => format!("{} points", r.plain.err_n),
        "peak_rss_mb" => "VmHWM".into(),
        "fail_frac" => format!("{}/{} ops", o.failed, o.attempted),
        _ => String::new(),
    }
}

fn render(args: &RunArgs, r: &Runner, o: &Outcome) -> String {
    let mut s = String::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    let _ = writeln!(
        s,
        "wormbench {} · seed {:#x} · {} s measured · {mode}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let _ = writeln!(s, "  {}", args.workload.why());
    let _ = writeln!(
        s,
        "  passes {} (first {DIGEST_PASSES} hashed), ops {} attempted, {} failed",
        r.plain.pass_ns.len(),
        o.attempted,
        o.failed
    );
    if args.trace {
        let _ = writeln!(
            s,
            "  per-layer values are per traced pass ({} passes), self time net of child spans",
            r.traced.pass_ns.len()
        );
    }
    for (name, v) in &o.metrics {
        let unit = lookup(name).map_or("", |d| d.unit);
        let _ = writeln!(s, "  {name:<34} {v:>16.6} {unit:<6} {}", basis(name, r, o));
    }
    let _ = writeln!(
        s,
        "  sim_digest {:016x}  model_digest {:016x}  ({})",
        o.digests.0, o.digests.1, o.pin_note
    );
    let messages = r.plain.messages.iter().chain(&r.traced.messages);
    for m in r.problems.iter().chain(messages).take(20) {
        let _ = writeln!(s, "  FAIL {m}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("pass_s", 1.25), ("peak_rss_mb", 7.0)]);
        assert!(json_is_well_formed(&line), "{line}");
        let doc = crate::layers::Json::parse(&line).unwrap();
        let crate::layers::Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pass = doc.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(pass.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(pass.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
