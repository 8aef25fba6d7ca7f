//! Benchmark entry point: `amc-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Prints a context line (host fingerprint, workload settings, sample
//! counts, failed-op ratio) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any op
//! failed its correctness check, 2 on bad arguments or set-up failure.

use std::process::ExitCode;

use amc_perfbench::report::{context_line, host_fingerprint, result_line};
use amc_perfbench::workloads::{analog_mc, batch_solve, cold_prepare, serve_zipf};
use amc_perfbench::{run_traced, run_untraced, Outcome, Workload};

const USAGE: &str =
    "usage: amc-perfbench --workload <cold_prepare|batch_solve|serve_zipf|analog_mc> \
                     --seed <u64> --seconds <f64> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(args: &Args) -> Result<(Outcome, &'static str), String> {
    let outcome = if args.trace {
        run_traced::<W>(args.seed, args.seconds)?
    } else {
        run_untraced::<W>(args.seed, args.seconds)?
    };
    Ok((outcome, W::THREADS))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ran = match args.workload.as_str() {
        "cold_prepare" => run::<cold_prepare::ColdPrepare>(&args),
        "batch_solve" => run::<batch_solve::BatchSolve>(&args),
        "serve_zipf" => run::<serve_zipf::ServeZipf>(&args),
        "analog_mc" => run::<analog_mc::AnalogMc>(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let (outcome, threads) = match ran {
        Ok(ran) => ran,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut fields = host_fingerprint();
    fields.push(("workload", args.workload.clone()));
    fields.push(("seed", args.seed.to_string()));
    fields.push(("threads", threads.to_string()));
    fields.push((
        "mode",
        if args.trace { "traced" } else { "untraced" }.into(),
    ));
    let mut numbers = vec![
        ("seconds", args.seconds),
        (
            "failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        ),
    ];
    numbers.extend(outcome.samples.iter().copied());
    println!("{}", context_line(&fields, &numbers));
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
