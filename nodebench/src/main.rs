//! The node benchmark: durable ingest, cold reads and mixed churn against
//! a 2-disk `Node` served by `Engine::start` on file volumes.
//!
//! ```text
//! cargo run --release --manifest-path nodebench/Cargo.toml -- \
//!     --workload <ingest|read_cold|mixed_churn|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root: volumes and span files go under
//! `.nodebench/` there. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a
//! run with spans recorded around each layer's calls) with `--trace 1`.
//! The lines before it are the human-readable report.

mod calib;
mod client;
mod crash;
mod metrics;
mod trace;
mod workload;

use std::process::ExitCode;

use metrics::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && workload::spec(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {:?} or \"all\", got {:?}",
            workload::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nodebench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workload::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let spec = workload::spec(name).expect("validated above");
        match metrics::run(&spec, args.seed, args.seconds, args.trace, args.smoke) {
            Ok(outcome) => {
                print_outcome(&outcome);
                ok &= outcome.correct;
                if args.smoke {
                    if let Err(e) = outcome.check_complete() {
                        eprintln!("nodebench smoke: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("nodebench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.smoke && !ok {
        eprintln!("nodebench smoke: output checks failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_outcome(o: &Outcome) {
    for line in &o.report {
        println!("{line}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    );
}
