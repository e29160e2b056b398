//! `react-load` — replay a seeded open-loop arrival trace against a
//! self-hosted ingest front-end and report goodput (on-time completions
//! per hour), the on-time fraction, assignment-latency percentiles and
//! the shed rate.
//!
//! ```text
//! USAGE: react-load [--quick] [--seed N] [--rate R] [--tasks N]
//!                   [--scale S] [--workers N] [--shape poisson|burst]
//!                   [--out PATH]
//!
//!   --quick       CI-sized run (fewer tasks/workers)
//!   --seed N      RNG seed (default 2013)
//!   --rate R      offered rate, tasks per crowd second (default 9.375)
//!   --tasks N     trace length (default 4000)
//!   --scale S     crowd seconds per wall second (default 60)
//!   --workers N   crowd workers (default 60)
//!   --shape X     arrival shape: poisson | burst (default: both)
//!   --out PATH    report path (default target/react-load.json)
//! ```

use react_load::{run, LoadParams, Shape};
use react_metrics::{ArtifactOutcome, Provenance};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: react-load [--quick] [--seed N] [--rate R] [--tasks N] \
[--scale S] [--workers N] [--shape poisson|burst] [--out PATH]";

struct Cli {
    params: LoadParams,
    shapes: Vec<Shape>,
    out: PathBuf,
}

fn parse() -> Result<Cli, String> {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut tasks: Option<usize> = None;
    let mut scale: Option<f64> = None;
    let mut workers: Option<usize> = None;
    let mut shapes: Option<Vec<Shape>> = None;
    let mut out = react_load::default_json_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--rate" => {
                rate = Some(
                    value("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?,
                )
            }
            "--tasks" => {
                tasks = Some(
                    value("--tasks")?
                        .parse()
                        .map_err(|e| format!("--tasks: {e}"))?,
                )
            }
            "--scale" => {
                scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--workers" => {
                workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--shape" => {
                let text = value("--shape")?;
                let shape = Shape::parse(&text).ok_or(format!("--shape: unknown shape {text}"))?;
                shapes = Some(vec![shape]);
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    // Explicit flags always win over the quick/default base, whatever
    // their position relative to --quick on the command line.
    let mut params = if quick {
        LoadParams::quick()
    } else {
        LoadParams::default()
    };
    if let Some(v) = seed {
        params.seed = v;
    }
    if let Some(v) = rate {
        params.rate = v;
    }
    if let Some(v) = tasks {
        params.tasks = v;
    }
    if let Some(v) = scale {
        params.time_scale = v;
    }
    if let Some(v) = workers {
        params.n_workers = v;
    }
    let shapes = shapes.unwrap_or_else(|| {
        vec![
            Shape::Poisson,
            Shape::Bursty {
                period: 30.0,
                size: 40,
            },
        ]
    });
    Ok(Cli {
        params,
        shapes,
        out,
    })
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::with_capacity(cli.shapes.len());
    for shape in cli.shapes {
        let params = LoadParams {
            shape,
            ..cli.params.clone()
        };
        match run(&params) {
            Ok(report) => runs.push(report),
            Err(e) => {
                eprintln!("load run ({}) failed: {e}", shape.name());
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", react_load::render(&runs));
    let provenance = Provenance::new(cli.params.seed).with_git_revision_from(&cli.out);
    match react_load::write_json_stamped(&runs, &cli.out, &provenance) {
        Ok(outcome) => {
            let suffix = match outcome {
                ArtifactOutcome::Created => String::new(),
                ArtifactOutcome::Unchanged => " (unchanged)".to_string(),
                ArtifactOutcome::BackedUp(prev) => {
                    format!(" (previous version preserved at {})", prev.display())
                }
            };
            println!("# JSON → {}{}", cli.out.display(), suffix);
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", cli.out.display());
            return ExitCode::FAILURE;
        }
    }
    if runs.iter().any(|r| !r.conserved) {
        eprintln!("conservation identity violated — see report above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
