//! The repo's one perf ledger. Three ways to call it:
//!
//! ```text
//! rxl-benchmark [--workload NAME]... [--reps N] [--seed S] [--out DIR]
//!     the ledger: each workload in its own child process, untraced then
//!     traced; writes DIR/result.json and DIR/trace.json
//! rxl-benchmark --workload NAME --seed S (--seconds T | --reps N) --trace 0|1
//!     one measured run in this process (what BENCHMARK.json's command and
//!     the ledger's children run); the last stdout line is the JSON result
//! rxl-benchmark --compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, metrics and bounds.

mod compare;
mod json;
mod ledger;
mod metrics;
mod micro;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rxl-benchmark [--workload NAME]... [--reps N] [--seed S] [--out DIR]
  rxl-benchmark --workload NAME --seed S (--seconds T | --reps N) --trace 0|1 [--record FILE]
  rxl-benchmark --compare A.json B.json";

/// Default timed repetitions per workload in the ledger.
const DEFAULT_REPS: usize = 7;
/// Fewest timed repetitions of a `--seconds` run.
const MIN_TIMED_REPS: usize = 3;

#[derive(Default)]
struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workloads.push(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--reps" => {
                let v = value("a count")?;
                args.reps = Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?);
            }
            "--seconds" => {
                let v = value("a duration")?;
                let secs: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(0.0..=600.0).contains(&secs) {
                    return Err(bad(&v));
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--out" => args.out = Some(value("a directory")?.into()),
            "--record" => args.record = Some(value("a file")?.into()),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn single_run(args: Args, trace: bool) -> Result<bool, String> {
    let [workload] = <[String; 1]>::try_from(args.workloads)
        .map_err(|_| format!("--trace runs exactly one --workload\n{USAGE}"))?;
    let opts = run::RunOptions {
        workload,
        seed: args.seed.unwrap_or(workloads::DEFAULT_SEED),
        min_reps: args.reps.unwrap_or(MIN_TIMED_REPS),
        seconds: args.seconds.unwrap_or(0.0),
        trace,
    };
    let record = run::run(&opts)?;
    record.print();
    if let Some(path) = &args.record {
        std::fs::write(path, record.to_json().to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", record.driver_line());
    Ok(record.failed == 0)
}

fn dispatch(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    // Trial-level parallelism is embarrassingly parallel and deliberately
    // not what this benchmark measures: everything runs on one worker.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|_| "cannot build the one-thread pool".to_string())?;
    match args.trace {
        Some(trace) => pool.install(|| single_run(args, trace)),
        None => ledger::run(&ledger::LedgerOptions {
            workloads: args.workloads,
            reps: args.reps.unwrap_or(DEFAULT_REPS),
            seed: args.seed.unwrap_or(workloads::DEFAULT_SEED),
            out: args.out.unwrap_or_else(|| "benchmark/out".into()),
        }),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
