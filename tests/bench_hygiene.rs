//! Hygiene guard for the committed bench baselines.
//!
//! `BENCH_sim.json` / `BENCH_model.json` are regression anchors: CI and
//! future sessions compare fresh release-mode runs against them. A baseline
//! regenerated with `--quick` (or in a debug build that then fails the
//! schema bump) silently poisons every later comparison — this has slipped
//! through review twice. The guard pins the two properties a valid
//! committed baseline must have:
//!
//! * `"quick": false` — full statistical effort, release profile;
//! * the current schema string — so a code-side schema bump forces the
//!   committed file to be regenerated in the same PR.
//!
//! Regenerate with:
//! `cargo run --release -p wormsim-experiments --bin repro -- bench-baseline --out .`

use std::path::Path;

/// Current schema literals — keep in sync with `bench_baseline.rs`.
const SIM_SCHEMA: &str = "wormsim-bench-sim/v7";
const MODEL_SCHEMA: &str = "wormsim-bench-model/v3";

fn read_baseline(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {} unreadable: {e}", path.display()))
}

fn assert_full_mode(name: &str, body: &str, schema: &str) {
    assert!(
        body.contains(&format!("\"schema\": \"{schema}\"")),
        "{name} carries a stale schema (want {schema}); regenerate it with \
         `cargo run --release -p wormsim-experiments --bin repro -- bench-baseline --out .`"
    );
    assert!(
        body.contains("\"quick\": false"),
        "{name} was generated with --quick; committed baselines must be \
         full-effort release runs \
         (`cargo run --release -p wormsim-experiments --bin repro -- bench-baseline --out .`)"
    );
    assert!(
        !body.contains("\"quick\": true"),
        "{name} claims quick mode; regenerate without --quick"
    );
}

#[test]
fn committed_sim_baseline_is_full_mode_and_current_schema() {
    assert_full_mode(
        "BENCH_sim.json",
        &read_baseline("BENCH_sim.json"),
        SIM_SCHEMA,
    );
}

#[test]
fn committed_model_baseline_is_full_mode_and_current_schema() {
    assert_full_mode(
        "BENCH_model.json",
        &read_baseline("BENCH_model.json"),
        MODEL_SCHEMA,
    );
}

/// Structural pedigree via the bench-compare JSON parser: the committed
/// files must parse, carry the current schema, be full-mode, and have a
/// non-empty point set — stronger than the substring checks above, and
/// exactly what `repro bench-compare` will assume about them.
#[test]
fn committed_baselines_parse_and_validate_structurally() {
    use wormsim::experiments::bench_compare::validate_baseline;
    validate_baseline(&read_baseline("BENCH_sim.json"), SIM_SCHEMA)
        .unwrap_or_else(|e| panic!("BENCH_sim.json: {e}"));
    validate_baseline(&read_baseline("BENCH_model.json"), MODEL_SCHEMA)
        .unwrap_or_else(|e| panic!("BENCH_model.json: {e}"));
}

/// The gate's zero line: comparing the committed baselines against
/// themselves must report no regression — if it does, the comparator
/// (not the baselines) is broken, and every CI verdict is suspect.
#[test]
fn baselines_self_compare_without_regressions() {
    use wormsim::experiments::bench_compare::{compare_dirs, CompareConfig};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = compare_dirs(root, root, &CompareConfig::default())
        .unwrap_or_else(|e| panic!("self-compare failed to load: {e}"));
    assert_eq!(report.regressions(), 0, "{}", report.render());
}

#[test]
fn sim_baseline_carries_the_faulted_group() {
    // Schema v5 added the faulted operating points; v6 added the
    // deliberately past-knee point (saturated run, still completes and is
    // recorded); v7 dropped the retired event core's points. A v7 file
    // without these would mean the regeneration ran against stale code.
    let body = read_baseline("BENCH_sim.json");
    for point in [
        "bft64_load0.1_f0_ff",
        "bft64_load0.1_f5_ff",
        "bft64_pastknee_f5_ff",
    ] {
        assert!(
            body.contains(point),
            "BENCH_sim.json (v5) is missing faulted point {point}"
        );
    }
}
