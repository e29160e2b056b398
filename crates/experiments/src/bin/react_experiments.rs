//! `react-experiments` — one CLI for every experiment suite.
//!
//! The classic figure commands (`fig3` … `chaos`, `all`) regenerate the
//! paper's artefacts; `sweep <manifest.toml>` expands a declarative
//! manifest into a deterministic run grid and fans it out across cores.
//! Either way the generic driver in [`react_experiments::sweep`] prints
//! each run's report and writes every artifact — figure CSVs plus one
//! aggregated KPI report — provenance-stamped under `--out`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use react_experiments::{registry, run_suites, suite, Experiment, Manifest, SweepOptions};
use react_metrics::ArtifactOutcome;

const USAGE: &str = "\
react-experiments — unified experiment runner

USAGE:
    react-experiments <command> [flags]

COMMANDS:
    sweep <manifest.toml>   expand and run a declarative sweep manifest
    all                     every paper-artefact suite (examples/sweep_all.toml)
    list                    list registered suites
    fig3|fig4               WBGM matching micro-benchmarks (Figures 3-4)
    fig5|fig6|fig7|fig8     end-to-end comparison (Figures 5-8)
    fig9|fig10              scalability sweep (Figures 9-10)
    case                    CrowdFlower case study (Sec. V-C)
    ablation                the eleven design-choice ablations
    chaos                   fault-injection chaos sweep

FLAGS:
    --quick        reduced sizes (seconds instead of minutes)
    --no-csv       skip CSV/JSON-lines artifacts
    --seed N       base seed (default 42; overrides a manifest's seed)
    --out DIR      artifact directory (default results/)
    --jobs N       worker cap for parallel-safe suites (default: cores;
                   1 = single-threaded)
";

struct Cli {
    command: String,
    manifest_path: Option<PathBuf>,
    quick: bool,
    no_csv: bool,
    seed: u64,
    seed_given: bool,
    out: PathBuf,
    jobs: Option<usize>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        command: String::new(),
        manifest_path: None,
        quick: false,
        no_csv: false,
        seed: 42,
        seed_given: false,
        out: PathBuf::from("results"),
        jobs: None,
    };
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--no-csv" => cli.no_csv = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                cli.seed_given = true;
            }
            "--out" => {
                cli.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
                cli.jobs = Some(n.max(1));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    cli.command = positional.next().ok_or("missing command")?;
    if cli.command == "sweep" {
        cli.manifest_path = Some(PathBuf::from(
            positional.next().ok_or("sweep needs a manifest path")?,
        ));
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(cli)
}

/// Locates `examples/sweep_all.toml` from the build-time workspace root,
/// falling back to the current directory for relocated binaries.
fn sweep_all_manifest() -> PathBuf {
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweep_all.toml");
    if baked.exists() {
        baked
    } else {
        PathBuf::from("examples/sweep_all.toml")
    }
}

fn load_manifest(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(cli: &Cli) -> Result<(), String> {
    // The manifest (when any) decides the suite list and the base seed.
    let manifest = match cli.command.as_str() {
        "sweep" => Some(load_manifest(cli.manifest_path.as_deref().unwrap())?),
        "all" => Some(load_manifest(&sweep_all_manifest())?),
        _ => None,
    };
    let mut manifest = manifest;
    if cli.seed_given {
        if let Some(m) = manifest.as_mut() {
            m.seed = cli.seed;
        }
    }
    let base_seed = manifest.as_ref().map(|m| m.seed).unwrap_or(cli.seed);

    let all = registry();
    if cli.command == "list" {
        for s in &all {
            println!("{:12} {}", s.name(), s.title());
        }
        return Ok(());
    }

    let names: Vec<String> = match &manifest {
        Some(m) => m.suites.clone(),
        None => vec![cli.command.clone()],
    };
    let mut selected: Vec<&dyn Experiment> = Vec::new();
    for name in &names {
        let canonical = suite(name).ok_or_else(|| format!("unknown suite `{name}`"))?;
        let exp = all
            .iter()
            .find(|s| s.name() == canonical)
            .ok_or_else(|| format!("suite `{canonical}` is not registered"))?;
        selected.push(exp.as_ref());
    }

    let opts = SweepOptions {
        quick: cli.quick,
        seed: cli.seed,
        jobs: cli.jobs,
        out_dir: if cli.no_csv {
            None
        } else {
            Some(cli.out.clone())
        },
    };
    if let Some(dir) = &opts.out_dir {
        println!("# artifacts → {}/\n", dir.display());
    }
    let outcome = run_suites(&selected, manifest.as_ref(), &opts)?;

    println!(
        "# {} run(s) across {} suite(s), base seed {base_seed}",
        outcome.total_runs,
        selected.len()
    );
    for (path, result) in &outcome.artifacts {
        let note = match result {
            ArtifactOutcome::Created => String::new(),
            ArtifactOutcome::Unchanged => " (unchanged)".to_string(),
            ArtifactOutcome::BackedUp(prev) => format!(" (prior kept as {})", prev.display()),
        };
        println!("# artifact {}{note}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprint!("{USAGE}");
            return if e.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
