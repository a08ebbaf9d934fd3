//! `wormbench`: the wormsim end-to-end and per-layer benchmark.
//!
//! ```text
//! wormbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! wormbench compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures one workload in this process, or every workload, each in
//! a child process of its own so that `peak_rss_mb` is per workload. The
//! last line of a workload's output is its JSON result; the run's record is
//! appended to `DIR/runs.jsonl` and, when traced, its spans are written to
//! `DIR/<workload>.trace.json`. See `README.md` for the metrics.

mod bench;
mod compare;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use report::RunArgs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage:
  wormbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
  wormbench compare A.jsonl B.jsonl
workloads: fig3-n1024, lowload-small, degraded-lanes-n64, knee-atlas (default: all)";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("wormbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parsed `run` flags; `workload` is `None` for all of them.
struct RunFlags {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunFlags, String> {
    let mut f = RunFlags {
        workload: None,
        seed: bench::DEFAULT_SEED,
        seconds: bench::DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => f.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => f.seconds = value.parse().ok().filter(|&s| s <= 3600).ok_or_else(bad)?,
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => f.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

/// Runs every workload in turn, each in a child process, and waits for each.
fn run_all(f: &RunFlags) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wormbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", w.name()])
            .args(["--seed", &format!("{:#x}", f.seed)])
            .args(["--seconds", &f.seconds.to_string()])
            .args(["--trace", if f.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&f.out)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("wormbench: {} failed ({s})", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("wormbench: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let f = match parse_run(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let Some(workload) = f.workload else {
        return run_all(&f);
    };
    let args = RunArgs {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        out: f.out,
    };
    if report::run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage_error("compare takes two record files");
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::load(&t).map_err(|e| format!("{p}: {e}")))
    };
    match read(a)
        .and_then(|ra| read(b).map(|rb| (ra, rb)))
        .and_then(|(ra, rb)| compare::compare(&ra, &rb))
    {
        Ok((report, ok)) => {
            print!("{report}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wormbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage_error("expected a command"),
    }
}
