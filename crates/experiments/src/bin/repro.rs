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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut ctx = ExperimentContext::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => ctx.quick = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => ctx.out_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--out needs a directory\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(seed) => ctx.seed = seed,
                    None => {
                        eprintln!("--seed needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let Some(target) = target else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };

    match target.as_str() {
        "list" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
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
