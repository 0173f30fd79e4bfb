//! `cffs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR] [--strict 1]`: one run of one workload. Prints every
//! metric by name with its unit, then — as the last line of standard
//! output — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when an op or a post-run check failed; with
//! `--strict 1` (what `run.sh` passes when a person runs it) also when
//! the process could not be pinned to one CPU.

use cffs_benchmark::run::{self, Args, DEFAULT_SEED, WORKLOADS};
use cffs_benchmark::workloads::Scale;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cffs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--strict 1]");
    eprintln!("workloads: {}", WORKLOADS.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 12.0,
        traced: false,
        scale: Scale::Full,
        out_dir: "benchmark/out".into(),
    };
    let mut strict = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => {
                value.parse().map(|v: f64| args.seconds = v).is_ok()
                    && (0.0..=60.0).contains(&args.seconds)
            }
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    args.traced = true;
                    true
                }
                _ => false,
            },
            "--out" => {
                args.out_dir = value.into();
                true
            }
            "--strict" => {
                strict = value == "1";
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    match run::run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json_line());
            if strict && !outcome.pinned {
                eprintln!(
                    "check failed: harness.pinned=0 (the process could not be pinned to one CPU)"
                );
                ExitCode::FAILURE
            } else if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}
