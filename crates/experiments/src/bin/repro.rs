//! `repro` — regenerate the figures and tables of Greenberg & Guan (ICPP
//! 1997) from the wormsim reproduction.
//!
//! ```text
//! repro list                     # show available experiments
//! repro fig3                     # run one experiment (full effort)
//! repro fig3 --quick             # reduced effort (smaller N, shorter runs)
//! repro all --out results/       # run everything, writing CSV artifacts
//! repro all --seed 42            # change the simulation seed
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use wormsim_experiments::{run_by_name, ExperimentContext, EXPERIMENTS};

fn usage() -> String {
    let mut s = String::from(
        "usage: repro <experiment|all|list> [--quick] [--out DIR] [--seed N]\n\nexperiments:\n",
    );
    for (id, _, desc) in EXPERIMENTS {
        s.push_str(&format!("  {id:<18} {desc}\n"));
    }
    s
}

/// What a command line asks for.
#[derive(Debug)]
enum Invocation {
    /// Print the usage text and succeed (`--help`, `-h`, `list`).
    Usage,
    /// Run the experiment `target` (every one for `all`) in `ctx`.
    Run {
        target: String,
        ctx: ExperimentContext,
    },
}

/// Parses the arguments after the program name. Total over any input: an
/// argument list it cannot make sense of is a usage error, not a panic.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut target: Option<String> = None;
    let mut ctx = ExperimentContext::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--out" => match args.next() {
                Some(dir) => ctx.out_dir = Some(PathBuf::from(dir)),
                None => return Err("--out needs a directory".into()),
            },
            "--seed" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(seed) => ctx.seed = seed,
                None => return Err("--seed needs an integer".into()),
            },
            "--help" | "-h" => return Ok(Invocation::Usage),
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    match target {
        None => Err("no experiment named".into()),
        Some(t) if t == "list" => Ok(Invocation::Usage),
        Some(target) => Ok(Invocation::Run { target, ctx }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, ctx) = match parse(&args) {
        Ok(Invocation::Usage) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Invocation::Run { target, ctx }) => (target, ctx),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    match target.as_str() {
        "all" => {
            for (id, _, _) in EXPERIMENTS {
                let started = std::time::Instant::now();
                match run_by_name(id, &ctx) {
                    Ok(out) => {
                        println!(
                            "##### {id} ({:.1}s) #####\n",
                            started.elapsed().as_secs_f64()
                        );
                        println!("{}", out.report);
                        for a in &out.artifacts {
                            println!("[artifact] {}", a.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("{id}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        name => match run_by_name(name, &ctx) {
            Ok(out) => {
                println!("{}", out.report);
                for a in &out.artifacts {
                    println!("[artifact] {}", a.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_experiments::ExperimentError;

    /// Splits a command line on single spaces.
    fn argv(line: &str) -> Vec<String> {
        line.split(' ')
            .filter(|a| !a.is_empty())
            .map(String::from)
            .collect()
    }

    #[test]
    fn random_argument_lists_parse_to_a_run_or_a_usage_error() {
        // Every flag, experiment names known and not, seeds that overflow,
        // are negative or hex, and empty, dash, NUL, long and non-ASCII
        // tokens.
        let mut pool = argv(
            "--quick --out --seed --help -h list all fig3 nope FIG3 0 42 \
             18446744073709551615 18446744073709551616 -1 0x10 -- - --quick=1 \
             results/out фиг3 图 🚀 \u{0}",
        );
        pool.extend(["", " ", &"x".repeat(4096)].map(String::from));
        // Seeded xorshift64.
        let mut state = 0x5EED_C0FF_EE15_600Du64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut usage, mut runs, mut errors) = (0, 0, 0);
        for _ in 0..10_000 {
            let args: Vec<String> = (0..below(9))
                .map(|_| pool[below(pool.len())].clone())
                .collect();
            match parse(&args) {
                Ok(Invocation::Usage) => usage += 1,
                Ok(Invocation::Run { target, ctx }) => {
                    runs += 1;
                    // Run nothing real: only unregistered names reach
                    // `run_by_name`, which must refuse them.
                    if target != "all" && !EXPERIMENTS.iter().any(|(id, _, _)| *id == target) {
                        let err = run_by_name(&target, &ctx).map(drop);
                        let unknown = matches!(err, Err(ExperimentError::UnknownExperiment { .. }));
                        assert!(unknown, "{args:?}: {err:?}");
                    }
                }
                Err(e) => {
                    errors += 1;
                    assert!(!e.is_empty(), "{args:?}");
                }
            }
        }
        assert!(
            usage > 0 && runs > 0 && errors > 0,
            "{usage} {runs} {errors}"
        );
    }

    #[test]
    fn flags_set_the_context_and_misuse_is_named() {
        match parse(&argv("fig3 --quick --seed 7 --out d")) {
            Ok(Invocation::Run { target, ctx }) => {
                assert_eq!((target.as_str(), ctx.quick, ctx.seed), ("fig3", true, 7));
                assert_eq!(ctx.out_dir, Some(PathBuf::from("d")));
            }
            other => panic!("{other:?}"),
        }
        for (line, expect) in [
            ("", "no experiment named"),
            ("fig3 --seed", "--seed needs an integer"),
            (
                "fig3 --seed 18446744073709551616",
                "--seed needs an integer",
            ),
            ("fig3 --out", "--out needs a directory"),
            ("fig3 fig2", "unexpected argument \"fig2\""),
        ] {
            assert_eq!(parse(&argv(line)).unwrap_err(), expect, "{line}");
        }
    }
}
