//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints every metric by name and unit; the last
//! line of standard output is the result as one JSON object.

use react_benchmark::catalog::{manifest_json, DEFAULT_SEED, RUN_SECONDS};
use react_benchmark::report::render;
use react_benchmark::selfcheck;
use react_benchmark::workload::{Options, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
  benchmark selfcheck    A/A test: two sets of runs, judged like the driver
  benchmark manifest     print BENCHMARK.json";

fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag)? {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    match args {
        [only] if only == "manifest" => {
            print!("{}", manifest_json());
            return Ok(true);
        }
        [only] if only == "selfcheck" => return selfcheck::run(),
        _ => {}
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => i += 2,
            "--quick" => i += 1,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = value(args, "--workload")?.ok_or("--workload is required")?;
    let seconds: f64 = parsed(args, "--seconds", f64::from(RUN_SECONDS))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let opts = Options {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds,
        traced: match parsed::<u8>(args, "--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        quick: args.iter().any(|a| a == "--quick"),
    };
    let mut result = react_benchmark::run(&opts);
    let (table, json) = render(&mut result, opts.traced, opts.quick);
    print!("{table}");
    println!("{json}");
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
