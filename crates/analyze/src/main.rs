//! `react-analyze` CLI — the workspace invariant gate.
//!
//! ```text
//! cargo run -p react-analyze                  # the gate: any violation fails
//! cargo run -p react-analyze -- --list        # rule registry + every violation
//! cargo run -p react-analyze -- --explain <rule>  # what a rule means + how to fix
//! cargo run -p react-analyze -- --root <dir>  # explicit workspace root
//! ```
//!
//! Exit codes: `0` clean, `1` rule violations, `2` usage or I/O error.
//! There is no grandfathering: a violation is fixed or carries an
//! `analyze: allow(<rule>) <reason>` marker at the site.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use react_analyze::rules::ALL_RULES;
use react_analyze::{Rule, Workspace};

struct Options {
    root: Option<PathBuf>,
    list: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        list: false,
        explain: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--explain" => {
                let value = args
                    .next()
                    .ok_or("--explain needs a rule name (or 'all')")?;
                opts.explain = Some(value);
            }
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: react-analyze [--root <dir>] [--list] [--explain <rule>|all]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

/// Prints the explanation block for one rule.
fn print_explain(rule: Rule) {
    let (what, fix) = rule.explain();
    println!("{}", rule.name());
    println!("  why: {what}");
    println!("  fix: {fix}");
}

/// Handles `--explain <rule>` / `--explain all`. Returns the exit code.
fn run_explain(arg: &str) -> ExitCode {
    if arg == "all" {
        for rule in ALL_RULES {
            print_explain(rule);
            println!();
        }
        return ExitCode::SUCCESS;
    }
    match Rule::from_name(arg) {
        Some(rule) => {
            print_explain(rule);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "react-analyze: unknown rule {arg:?}; known rules: {}",
                ALL_RULES
                    .iter()
                    .map(|r| r.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(2)
        }
    }
}

/// The workspace root: `--root` if given, else two levels above this
/// crate's manifest (set by cargo), else the current directory.
fn resolve_root(opts: &Options) -> PathBuf {
    if let Some(root) = &opts.root {
        return root.clone();
    }
    if let Ok(manifest_dir) = env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(manifest_dir).join("../..");
        if candidate.join("Cargo.toml").is_file() {
            return candidate;
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(arg) = &opts.explain {
        return run_explain(arg);
    }
    let root = resolve_root(&opts);
    let workspace = match Workspace::open(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("react-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workspace.check() {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("react-analyze: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let summary = format!(
        "{} violation(s) in {} file(s) scanned",
        outcome.violations.len(),
        outcome.files_scanned
    );
    if opts.list {
        // Rule registry first — CI smoke-checks this block to catch
        // registry drift (a rule added without docs support).
        println!("rules ({}):", ALL_RULES.len());
        for rule in ALL_RULES {
            println!("  {}", rule.name());
        }
        for v in &outcome.violations {
            println!("{v}");
        }
        println!("{summary}");
    } else if outcome.violations.is_empty() {
        println!("react-analyze: OK — {summary}");
    } else {
        eprintln!("react-analyze: FAIL");
        for v in &outcome.violations {
            eprintln!("  {v}");
        }
        // Violations arrive sorted by rule, so adjacent dedup suffices.
        let mut failed_rules: Vec<&str> =
            outcome.violations.iter().map(|v| v.rule.name()).collect();
        failed_rules.dedup();
        for name in failed_rules {
            eprintln!("  run `cargo run -p react-analyze -- --explain {name}` for fix guidance");
        }
        eprintln!("{summary}");
    }
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
