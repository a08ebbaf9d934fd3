//! `wormbench compare A.jsonl B.jsonl`: base set A against candidate set B.
//!
//! Each file holds run records (one JSON object per line, as `run` appends
//! them). Per workload and end-to-end metric the report gives both sets'
//! medians and quartiles, the ratio B/A with its base, and a verdict against
//! the metric's bound: `BENCHMARK.json` bounds the gated metrics and
//! [`EXTRA`] carries the rules of the others. Where either set's spread
//! exceeds the bound the verdict is "unresolved", unless every candidate
//! run beats every base run.

use crate::layers::Json;
use crate::metrics::{Better, Def, Rule, END_TO_END, EXTRA};
use crate::stats::{median, quartiles, rel_spread};
use crate::workloads::Workload;
use std::fmt::Write as _;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One stored run.
#[derive(Debug, Clone)]
pub struct Record {
    workload: String,
    seed: String,
    trace: bool,
    digests: (String, String),
    metrics: Vec<(String, f64)>,
}

impl Record {
    fn parse(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        let text = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record without {k:?}"))
        };
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => return Err("record without metrics".into()),
        };
        Ok(Self {
            workload: text("workload")?,
            seed: text("seed")?,
            trace: doc.get("trace").and_then(Json::as_f64) == Some(1.0),
            digests: (text("sim_digest")?, text("model_digest")?),
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|m| m.1)
    }
}

/// Parses a run-record file, skipping blank lines.
pub fn load(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The bound `BENCHMARK.json` gives an end-to-end metric.
fn bound(name: &str) -> Result<f64, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("BENCHMARK.json gives no bound for {name}"))
}

/// A comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound: a regression.
    Regressed,
    /// Spread wider than the bound (or fewer than two runs a side).
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate runs `b` against base runs `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, rule: Rule) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // Positive when b is worse than a.
    let signed = |x: f64| if better == Better::Lower { x } else { -x };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let b_beats_all = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let (worse, bound, spread) = match rule {
        Rule::NoRise => {
            let rose = signed(max(b) - max(a)) > 0.0;
            return if rose {
                Verdict::Regressed
            } else {
                Verdict::Same
            };
        }
        Rule::Relative(bound) => {
            let spread = rel_spread(a).zip(rel_spread(b)).map(|(x, y)| x.max(y));
            (signed(mb - ma) / ma.abs(), bound, spread)
        }
        Rule::Absolute(bound) => {
            let abs = |v: &[f64]| quartiles(v).map(|q| q[2] - q[0]);
            let spread = abs(a).zip(abs(b)).map(|(x, y)| x.max(y));
            (signed(mb - ma), bound, spread)
        }
    };
    match spread {
        _ if b_beats_all && worse < -bound => Verdict::Improved,
        Some(s) if s <= bound => {
            if worse > bound {
                Verdict::Regressed
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Same
            }
        }
        _ => Verdict::Unresolved,
    }
}

fn summary(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some(q)) => format!("{m:.6} [{:.6}, {:.6}]", q[0], q[2]),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".into(),
    }
}

/// Compares two record sets; returns the report and whether it passed (no
/// regression and no changed digest).
pub fn compare(a: &[Record], b: &[Record]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let mut rules: Vec<(Def, Rule)> = Vec::new();
    for d in END_TO_END {
        rules.push((d, Rule::Relative(bound(d.name)?)));
    }
    rules.extend(EXTRA);
    let _ = writeln!(
        out,
        "{:<20} {:<20} {:>38} {:>38} {:>9}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A"
    );
    for w in Workload::ALL {
        let runs = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == w.name() && !r.trace)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for (def, rule) in &rules {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metric(def.name)).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, def.better, *rule);
            ok &= verdict != Verdict::Regressed;
            let ratio = match (median(&va), median(&vb)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
                _ => "-".into(),
            };
            let rule_txt = match rule {
                Rule::Relative(b) => format!("{:.0}%", 100.0 * b),
                Rule::Absolute(b) => format!("+{b} {}", def.unit),
                Rule::NoRise => "no rise".into(),
            };
            let _ = writeln!(
                out,
                "{:<20} {:<20} {:>38} {:>38} {:>9}  {} ({rule_txt}; {} vs {} runs; {}, {} is better)",
                w.name(),
                def.name,
                summary(&va),
                summary(&vb),
                ratio,
                verdict.label(),
                va.len(),
                vb.len(),
                def.unit,
                def.better.label()
            );
        }
        for x in &ra {
            for y in rb
                .iter()
                .filter(|y| y.seed == x.seed && y.digests != x.digests)
            {
                ok = false;
                let _ = writeln!(
                    out,
                    "{:<20} digests at seed {} CHANGED: {}/{} -> {}/{}",
                    w.name(),
                    x.seed,
                    x.digests.0,
                    x.digests.1,
                    y.digests.0,
                    y.digests.1
                );
            }
        }
    }
    let _ = writeln!(out, "B/A is the ratio of medians with A as the base.");
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98];
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let rel = Rule::Relative(0.1);
        assert_eq!(judge(&a, &a, Better::Lower, rel), Verdict::Same);
        assert_eq!(judge(&a, &slower, Better::Lower, rel), Verdict::Regressed);
        assert_eq!(judge(&a, &faster, Better::Lower, rel), Verdict::Improved);
        assert_eq!(judge(&a, &slower, Better::Higher, rel), Verdict::Improved);
        let noisy = [0.5, 1.5, 0.7, 1.4, 1.0, 1.2];
        assert_eq!(judge(&a, &noisy, Better::Lower, rel), Verdict::Unresolved);
        assert_eq!(judge(&a, &[1.0], Better::Lower, rel), Verdict::Unresolved);
        let abs = Rule::Absolute(0.1);
        let up = [2.0, 2.0, 2.0];
        assert_eq!(
            judge(&[1.95, 1.95, 1.95], &up, Better::Lower, abs),
            Verdict::Same
        );
        assert_eq!(
            judge(&[1.5, 1.5, 1.5], &up, Better::Lower, abs),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.01], Better::Lower, Rule::NoRise),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, Rule::NoRise),
            Verdict::Same
        );
    }

    #[test]
    fn records_round_trip_and_changed_digests_fail() {
        let line = |seed: &str, digest: &str, pass: f64| {
            format!(
                r#"{{"workload":"lowload-small","seed":"{seed}","seconds":1,"trace":0,"passes":2,"correct":true,"attempted":60,"failed":0,"sim_digest":"{digest}","model_digest":"m","metrics":{{"pass_s":{pass},"fail_frac":0}}}}"#
            )
        };
        let a = load(&format!(
            "{}\n\n{}\n",
            line("0x1", "d", 1.0),
            line("0x2", "e", 1.01)
        ))
        .unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].metric("pass_s"), Some(1.0));
        let (report, ok) = compare(&a, &a).unwrap();
        assert!(ok, "{report}");
        assert!(report.contains("pass_s"));
        let b = load(&line("0x1", "other", 1.0)).unwrap();
        let (report, ok) = compare(&a, &b).unwrap();
        assert!(!ok && report.contains("CHANGED"), "{report}");
        assert!(load("{not json").is_err());
    }
}
