//! Statistical perf-regression gate — `repro bench-compare`.
//!
//! Loads two benchmark baselines (`BENCH_sim.json` + `BENCH_model.json`
//! in a baseline and a candidate directory), matches their points, and
//! renders a verdict table:
//!
//! * **Deterministic fields** — schemas, `cycles_run`/`cycles_skipped`,
//!   fixed-point iteration counts, knee-derived anchor loads, lane-model
//!   latency anchors — must match **exactly**: they are machine-independent
//!   by construction, so any drift is a real behavioral change, not noise.
//! * **Timing fields** (`median_ns` and friends) are machine snapshots;
//!   they are compared with a configurable relative tolerance
//!   (`candidate` within `baseline ± tolerance%`), or skipped entirely in
//!   deterministic-only mode — the form CI uses, where the candidate is a
//!   freshly generated `--quick` baseline whose deterministic fields must
//!   reproduce the committed full baselines on any machine.
//!
//! The JSON loader is a small recursive-descent parser (no serde in this
//! offline workspace); it doubles as the pedigree validator used by the
//! root `bench_hygiene` test.

use crate::error::ExperimentError;
use crate::table::Table;
use std::fmt::Write as _;
use std::path::Path;

// ---------------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser.
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for the flat baseline files).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (exact for the integers the baselines carry,
    /// which all fit in f64's 53-bit mantissa).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first
    /// syntax error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, when this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected content at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    // The baselines never emit \u escapes; reject rather
                    // than silently mangle.
                    _ => return Err(format!("unsupported escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison machinery.
// ---------------------------------------------------------------------------

/// How to compare two baselines.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Relative tolerance for timing fields, in percent: a candidate
    /// timing passes when it is within `baseline ± tolerance%`.
    pub tolerance_pct: f64,
    /// Compare only machine-independent fields and skip every timing —
    /// the cross-machine CI mode (quick candidate vs committed full
    /// baselines).
    pub deterministic_only: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            // Wall-clock medians on shared runners wobble hard; the exact
            // deterministic fields are the sharp edge of this gate, the
            // timing check only catches order-of-magnitude cliffs.
            tolerance_pct: 50.0,
            deterministic_only: false,
        }
    }
}

/// One comparison's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matched (exactly, or within tolerance for timings).
    Ok,
    /// Mismatched: the gate fails.
    Regression,
    /// Not comparable in this mode (e.g. quick-vs-full anchors at
    /// different N, or timings in deterministic-only mode).
    Skipped,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Skipped => "skipped",
        }
    }
}

/// One row of the verdict table.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared (`<point>.<field>` style).
    pub name: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Candidate value, rendered.
    pub candidate: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full comparison outcome.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every check performed, in comparison order.
    pub checks: Vec<Check>,
}

impl CompareReport {
    fn push(&mut self, name: impl Into<String>, base: String, cand: String, verdict: Verdict) {
        self.checks.push(Check {
            name: name.into(),
            baseline: base,
            candidate: cand,
            verdict,
        });
    }

    /// Number of failed checks.
    pub fn regressions(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Regression)
            .count()
    }

    /// Number of checks that actually compared something.
    pub fn compared(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.verdict != Verdict::Skipped)
            .count()
    }

    /// Renders the verdict table plus a one-line summary.
    pub fn render(&self) -> String {
        let mut tbl = Table::new(vec!["check", "baseline", "candidate", "verdict"]);
        for c in &self.checks {
            tbl.row(vec![
                c.name.clone(),
                c.baseline.clone(),
                c.candidate.clone(),
                c.verdict.label().to_string(),
            ]);
        }
        let mut out = tbl.render();
        let _ = write!(
            out,
            "\n{} checks compared, {} skipped, {} regression(s).",
            self.compared(),
            self.checks.len() - self.compared(),
            self.regressions(),
        );
        out
    }
}

/// Compact rendering for the verdict table (integers without `.0`).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn render(v: Option<&Json>) -> String {
    match v {
        None => "<missing>".to_string(),
        Some(Json::Num(n)) => fmt_num(*n),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Null) => "null".to_string(),
        Some(Json::Arr(_)) => "<array>".to_string(),
        Some(Json::Obj(_)) => "<object>".to_string(),
    }
}

/// Exact comparison of a (possibly nested) scalar field.
fn check_exact(report: &mut CompareReport, name: &str, base: Option<&Json>, cand: Option<&Json>) {
    let verdict = match (base, cand) {
        (Some(b), Some(c)) if b == c => Verdict::Ok,
        _ => Verdict::Regression,
    };
    report.push(name, render(base), render(cand), verdict);
}

/// Relative-tolerance comparison of a timing field (skipped entirely in
/// deterministic-only mode).
fn check_timing(
    report: &mut CompareReport,
    cfg: &CompareConfig,
    name: &str,
    base: Option<&Json>,
    cand: Option<&Json>,
) {
    if cfg.deterministic_only {
        report.push(name, render(base), render(cand), Verdict::Skipped);
        return;
    }
    let verdict = match (base.and_then(Json::as_f64), cand.and_then(Json::as_f64)) {
        (Some(b), Some(c)) => {
            let tol = cfg.tolerance_pct / 100.0 * b.abs().max(1.0);
            if (c - b).abs() <= tol {
                Verdict::Ok
            } else {
                Verdict::Regression
            }
        }
        // A timing absent from both sides (older schema) is not comparable;
        // absent from only one side is.
        (None, None) => Verdict::Skipped,
        _ => Verdict::Regression,
    };
    report.push(name, render(base), render(cand), verdict);
}

/// Point-name → point-object index of a `"points"` array.
fn point_index(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("points")
        .and_then(Json::as_arr)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| p.get("name").and_then(Json::as_str).map(|n| (n, p)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two parsed `BENCH_sim.json` documents into `report`.
pub fn compare_sim(report: &mut CompareReport, cfg: &CompareConfig, base: &Json, cand: &Json) {
    check_exact(report, "sim.schema", base.get("schema"), cand.get("schema"));
    if !cfg.deterministic_only {
        // A quick candidate's timings are not comparable to a full
        // baseline's; outside deterministic-only mode the modes must agree.
        check_exact(report, "sim.quick", base.get("quick"), cand.get("quick"));
    }
    if let (Some(b), Some(c)) = (base.get("obs_overhead"), cand.get("obs_overhead")) {
        check_exact(report, "obs_overhead.point", b.get("point"), c.get("point"));
        check_exact(
            report,
            "obs_overhead.budget",
            b.get("budget"),
            c.get("budget"),
        );
        check_timing(
            report,
            cfg,
            "obs_overhead.disabled_median_ns",
            b.get("disabled_median_ns"),
            c.get("disabled_median_ns"),
        );
    }
    let base_points = point_index(base);
    let cand_points = point_index(cand);
    for (name, bp) in &base_points {
        let Some((_, cp)) = cand_points.iter().find(|(n, _)| n == name) else {
            // A quick candidate legitimately carries a subset of the full
            // grid; a shrinking point set in a like-for-like comparison is
            // a regression (a benchmark silently disappeared).
            let verdict = if cfg.deterministic_only {
                Verdict::Skipped
            } else {
                Verdict::Regression
            };
            report.push(
                format!("{name}.present"),
                "yes".into(),
                "no".into(),
                verdict,
            );
            continue;
        };
        for field in [
            "n",
            "flit_load",
            "lanes",
            "engine",
            "cycles_run",
            "cycles_skipped",
        ] {
            check_exact(
                report,
                &format!("{name}.{field}"),
                bp.get(field),
                cp.get(field),
            );
        }
        check_timing(
            report,
            cfg,
            &format!("{name}.median_ns"),
            bp.get("median_ns"),
            cp.get("median_ns"),
        );
    }
    for (name, _) in &cand_points {
        if !base_points.iter().any(|(n, _)| n == name) {
            // New points are information, not failure.
            report.push(
                format!("{name}.present"),
                "no".into(),
                "yes".into(),
                Verdict::Skipped,
            );
        }
    }
}

/// Compares two parsed `BENCH_model.json` documents into `report`.
pub fn compare_model(report: &mut CompareReport, cfg: &CompareConfig, base: &Json, cand: &Json) {
    check_exact(
        report,
        "model.schema",
        base.get("schema"),
        cand.get("schema"),
    );
    check_timing(
        report,
        cfg,
        "model.closed_form_latency_ns",
        base.get("closed_form_latency_ns"),
        cand.get("closed_form_latency_ns"),
    );
    check_timing(
        report,
        cfg,
        "model.framework_solve_ns",
        base.get("framework_solve_ns"),
        cand.get("framework_solve_ns"),
    );
    // The closed-form anchor load is knee-derived and deterministic, but
    // quick mode anchors at a smaller machine — only comparable at equal N.
    let same_anchor_n = match (base.get("anchor"), cand.get("anchor")) {
        (Some(b), Some(c)) => b.get("n") == c.get("n") && b.get("n").is_some(),
        _ => false,
    };
    if same_anchor_n {
        check_exact(
            report,
            "anchor.flit_load",
            base.get("anchor").and_then(|a| a.get("flit_load")),
            cand.get("anchor").and_then(|a| a.get("flit_load")),
        );
    } else {
        report.push(
            "anchor.flit_load",
            render(base.get("anchor").and_then(|a| a.get("flit_load"))),
            render(cand.get("anchor").and_then(|a| a.get("flit_load"))),
            Verdict::Skipped,
        );
    }
    if let (Some(b), Some(c)) = (base.get("ring_sweep"), cand.get("ring_sweep")) {
        for field in [
            "points",
            "cold_iterations",
            "warm_iterations",
            "iteration_reduction",
        ] {
            check_exact(
                report,
                &format!("ring_sweep.{field}"),
                b.get(field),
                c.get(field),
            );
        }
        for field in ["cold_ns", "warm_ns"] {
            check_timing(
                report,
                cfg,
                &format!("ring_sweep.{field}"),
                b.get(field),
                c.get(field),
            );
        }
    }
    if let (Some(b), Some(c)) = (base.get("flow_sweep"), cand.get("flow_sweep")) {
        check_exact(
            report,
            "flow_sweep.points",
            b.get("points"),
            c.get("points"),
        );
        for field in ["rebuild_ns", "warm_rescale_ns"] {
            check_timing(
                report,
                cfg,
                &format!("flow_sweep.{field}"),
                b.get(field),
                c.get(field),
            );
        }
    }
    if let (Some(b), Some(c)) = (base.get("lanes"), cand.get("lanes")) {
        let same_n = b.get("n") == c.get("n") && b.get("n").is_some();
        for field in ["flit_load", "l1_latency", "l2_latency", "l4_latency"] {
            if same_n {
                check_exact(
                    report,
                    &format!("lanes.{field}"),
                    b.get(field),
                    c.get(field),
                );
            } else {
                report.push(
                    format!("lanes.{field}"),
                    render(b.get(field)),
                    render(c.get(field)),
                    Verdict::Skipped,
                );
            }
        }
        for field in ["l1_solve_ns", "l2_solve_ns", "l4_solve_ns"] {
            check_timing(
                report,
                cfg,
                &format!("lanes.{field}"),
                b.get(field),
                c.get(field),
            );
        }
    }
}

fn load_json(path: &Path) -> Result<Json, ExperimentError> {
    let body = std::fs::read_to_string(path).map_err(|source| ExperimentError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    Json::parse(&body).map_err(|e| ExperimentError::Invalid(format!("{}: {e}", path.display())))
}

/// Compares `BENCH_sim.json` + `BENCH_model.json` found in two directories.
///
/// # Errors
///
/// I/O or parse failures on any of the four files.
pub fn compare_dirs(
    baseline_dir: &Path,
    candidate_dir: &Path,
    cfg: &CompareConfig,
) -> Result<CompareReport, ExperimentError> {
    let mut report = CompareReport::default();
    compare_sim(
        &mut report,
        cfg,
        &load_json(&baseline_dir.join("BENCH_sim.json"))?,
        &load_json(&candidate_dir.join("BENCH_sim.json"))?,
    );
    compare_model(
        &mut report,
        cfg,
        &load_json(&baseline_dir.join("BENCH_model.json"))?,
        &load_json(&candidate_dir.join("BENCH_model.json"))?,
    );
    Ok(report)
}

/// Validates a committed baseline's pedigree: parseable, expected schema,
/// full-mode (`"quick": false`), non-empty where applicable. Used by the
/// root `bench_hygiene` test.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_baseline(body: &str, expect_schema: &str) -> Result<(), String> {
    let doc = Json::parse(body)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != expect_schema {
        return Err(format!("schema {schema:?}, expected {expect_schema:?}"));
    }
    match doc.get("quick").and_then(Json::as_bool) {
        Some(false) => {}
        Some(true) => return Err("committed baseline was generated with --quick".into()),
        None => return Err("missing quick field".into()),
    }
    if let Some(points) = doc.get("points") {
        let n = points.as_arr().map_or(0, <[Json]>::len);
        if n == 0 {
            return Err("empty points array".into());
        }
    }
    Ok(())
}

/// The cross-machine CI gate: regenerates a `--quick` baseline into a
/// scratch directory and compares its **deterministic** fields against the
/// committed full baselines in `baseline_dir`. Timings are skipped — the
/// deterministic fields (cycle counts, iteration counts, knee-derived
/// anchors) must reproduce bit-for-bit on any machine.
///
/// # Errors
///
/// Baseline generation, I/O, or parse failures.
pub fn run_quick_gate(baseline_dir: &Path, seed: u64) -> Result<CompareReport, ExperimentError> {
    let scratch = std::env::temp_dir().join(format!("wormsim_bench_gate_{}", std::process::id()));
    let ctx = crate::experiments::ExperimentContext {
        quick: true,
        out_dir: Some(scratch.clone()),
        seed,
    };
    let gen = crate::experiments::bench_baseline::run(&ctx)?;
    if gen.artifacts.len() != 2 {
        let _ = std::fs::remove_dir_all(&scratch);
        return Err(ExperimentError::Invalid(format!(
            "quick baseline generation wrote {} artifacts, expected 2",
            gen.artifacts.len()
        )));
    }
    let cfg = CompareConfig {
        deterministic_only: true,
        ..CompareConfig::default()
    };
    let result = compare_dirs(baseline_dir, &scratch, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_baseline_shapes() {
        let doc = Json::parse(
            "{\n  \"schema\": \"wormsim-bench-sim/v7\",\n  \"quick\": false,\n  \
             \"points\": [{\"name\": \"a\", \"median_ns\": 123, \"cycles_per_sec\": 1.5e6}]\n}\n",
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("wormsim-bench-sim/v7")
        );
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));
        let p = &doc.get("points").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(p.get("median_ns").and_then(Json::as_f64), Some(123.0));
        assert_eq!(p.get("cycles_per_sec").and_then(Json::as_f64), Some(1.5e6));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    fn sim_doc(cycles_run: u64, median_ns: u64) -> String {
        format!(
            "{{\"schema\": \"wormsim-bench-sim/v7\", \"quick\": false, \
             \"obs_overhead\": {{\"point\": \"p\", \"budget\": 1.01, \"disabled_median_ns\": 100}}, \
             \"points\": [{{\"name\": \"a\", \"n\": 16, \"flit_load\": 0.001, \"lanes\": 1, \
             \"engine\": \"ref\", \"median_ns\": {median_ns}, \"cycles_run\": {cycles_run}, \
             \"cycles_skipped\": 2}}]}}"
        )
    }

    #[test]
    fn identical_sim_docs_pass() {
        let doc = Json::parse(&sim_doc(4500, 1000)).unwrap();
        let mut report = CompareReport::default();
        compare_sim(&mut report, &CompareConfig::default(), &doc, &doc);
        assert_eq!(report.regressions(), 0, "{}", report.render());
        assert!(report.compared() > 0);
    }

    #[test]
    fn deterministic_drift_is_a_regression_even_within_tolerance() {
        let base = Json::parse(&sim_doc(4500, 1000)).unwrap();
        let cand = Json::parse(&sim_doc(4501, 1000)).unwrap();
        let mut report = CompareReport::default();
        compare_sim(&mut report, &CompareConfig::default(), &base, &cand);
        assert_eq!(report.regressions(), 1, "{}", report.render());
        assert!(report.render().contains("a.cycles_run"));
    }

    #[test]
    fn timing_noise_within_tolerance_passes_but_cliffs_fail() {
        let base = Json::parse(&sim_doc(4500, 1000)).unwrap();
        let wobble = Json::parse(&sim_doc(4500, 1400)).unwrap();
        let cliff = Json::parse(&sim_doc(4500, 5000)).unwrap();
        let cfg = CompareConfig::default(); // 50%
        let mut r1 = CompareReport::default();
        compare_sim(&mut r1, &cfg, &base, &wobble);
        assert_eq!(r1.regressions(), 0, "{}", r1.render());
        let mut r2 = CompareReport::default();
        compare_sim(&mut r2, &cfg, &base, &cliff);
        assert_eq!(r2.regressions(), 1, "{}", r2.render());
        assert!(r2.render().contains("a.median_ns"));
    }

    #[test]
    fn deterministic_only_skips_timings_and_missing_points() {
        let base = Json::parse(
            "{\"schema\": \"s\", \"quick\": false, \"points\": [\
             {\"name\": \"a\", \"n\": 16, \"flit_load\": 0.1, \"lanes\": 1, \"engine\": \"ref\", \
              \"median_ns\": 1000, \"cycles_run\": 10, \"cycles_skipped\": 0}, \
             {\"name\": \"big\", \"n\": 1024, \"flit_load\": 0.1, \"lanes\": 1, \"engine\": \"ref\", \
              \"median_ns\": 9000, \"cycles_run\": 99, \"cycles_skipped\": 0}]}",
        )
        .unwrap();
        // Quick candidate: subset of points, wildly different timing.
        let cand = Json::parse(
            "{\"schema\": \"s\", \"quick\": true, \"points\": [\
             {\"name\": \"a\", \"n\": 16, \"flit_load\": 0.1, \"lanes\": 1, \"engine\": \"ref\", \
              \"median_ns\": 77777, \"cycles_run\": 10, \"cycles_skipped\": 0}]}",
        )
        .unwrap();
        let cfg = CompareConfig {
            deterministic_only: true,
            ..CompareConfig::default()
        };
        let mut report = CompareReport::default();
        compare_sim(&mut report, &cfg, &base, &cand);
        assert_eq!(report.regressions(), 0, "{}", report.render());
        // But deterministic drift still trips it.
        let drift = Json::parse(
            "{\"schema\": \"s\", \"quick\": true, \"points\": [\
             {\"name\": \"a\", \"n\": 16, \"flit_load\": 0.1, \"lanes\": 1, \"engine\": \"ref\", \
              \"median_ns\": 77777, \"cycles_run\": 11, \"cycles_skipped\": 0}]}",
        )
        .unwrap();
        let mut r2 = CompareReport::default();
        compare_sim(&mut r2, &cfg, &base, &drift);
        assert_eq!(r2.regressions(), 1, "{}", r2.render());
    }

    #[test]
    fn model_anchor_comparison_requires_equal_n() {
        let base = Json::parse(
            "{\"schema\": \"m\", \"anchor\": {\"n\": 1024, \"flit_load\": 0.0195}, \
             \"ring_sweep\": {\"points\": 20, \"cold_iterations\": 100, \"warm_iterations\": 60, \
             \"iteration_reduction\": 0.4, \"cold_ns\": 10, \"warm_ns\": 5}}",
        )
        .unwrap();
        let cand_diff_n = Json::parse(
            "{\"schema\": \"m\", \"anchor\": {\"n\": 256, \"flit_load\": 0.9}, \
             \"ring_sweep\": {\"points\": 20, \"cold_iterations\": 100, \"warm_iterations\": 60, \
             \"iteration_reduction\": 0.4, \"cold_ns\": 10, \"warm_ns\": 5}}",
        )
        .unwrap();
        let mut report = CompareReport::default();
        compare_model(&mut report, &CompareConfig::default(), &base, &cand_diff_n);
        assert_eq!(report.regressions(), 0, "{}", report.render());
        // Same N, different anchor load: deterministic regression.
        let cand_drift = Json::parse(
            "{\"schema\": \"m\", \"anchor\": {\"n\": 1024, \"flit_load\": 0.02}, \
             \"ring_sweep\": {\"points\": 20, \"cold_iterations\": 100, \"warm_iterations\": 60, \
             \"iteration_reduction\": 0.4, \"cold_ns\": 10, \"warm_ns\": 5}}",
        )
        .unwrap();
        let mut r2 = CompareReport::default();
        compare_model(&mut r2, &CompareConfig::default(), &base, &cand_drift);
        assert_eq!(r2.regressions(), 1, "{}", r2.render());
        // Changed iteration counts are deterministic regressions too.
        let cand_iters = Json::parse(
            "{\"schema\": \"m\", \"anchor\": {\"n\": 1024, \"flit_load\": 0.0195}, \
             \"ring_sweep\": {\"points\": 20, \"cold_iterations\": 101, \"warm_iterations\": 60, \
             \"iteration_reduction\": 0.4, \"cold_ns\": 10, \"warm_ns\": 5}}",
        )
        .unwrap();
        let mut r3 = CompareReport::default();
        compare_model(&mut r3, &CompareConfig::default(), &base, &cand_iters);
        assert_eq!(r3.regressions(), 1, "{}", r3.render());
    }

    #[test]
    fn committed_baselines_validate_and_self_compare_clean() {
        // The repo's own committed files are the canonical fixtures.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sim = std::fs::read_to_string(root.join("BENCH_sim.json")).unwrap();
        let model = std::fs::read_to_string(root.join("BENCH_model.json")).unwrap();
        validate_baseline(&sim, "wormsim-bench-sim/v7").unwrap();
        validate_baseline(&model, "wormsim-bench-model/v3").unwrap();
        let report = compare_dirs(&root, &root, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.render());
        assert!(report.compared() > 30, "{}", report.render());
    }

    #[test]
    fn validate_baseline_rejects_quick_and_bad_schema() {
        assert!(validate_baseline("{\"schema\": \"x\", \"quick\": false}", "y").is_err());
        assert!(
            validate_baseline("{\"schema\": \"y\", \"quick\": true}", "y")
                .unwrap_err()
                .contains("--quick")
        );
        assert!(validate_baseline("not json", "y").is_err());
        assert!(
            validate_baseline("{\"schema\": \"y\", \"quick\": false, \"points\": []}", "y")
                .is_err()
        );
        assert!(validate_baseline("{\"schema\": \"y\", \"quick\": false}", "y").is_ok());
    }
}
