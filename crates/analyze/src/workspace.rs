//! Workspace discovery: walks the repo's `.rs` files, maps each file to
//! its owning crate manifest, and aggregates rule violations.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::Violation;
use crate::symbols::{self, FileAnalysis, SymbolTable};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", ".github"];

/// A workspace rooted at the repository top level.
#[derive(Debug, Clone)]
pub struct Workspace {
    root: PathBuf,
}

/// The result of scanning a workspace.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// All violations, ordered by rule then file then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Workspace {
    /// Opens the workspace at `root`. Fails if `root` does not look like
    /// the repo top level (no `Cargo.toml`).
    pub fn open(root: &Path) -> io::Result<Workspace> {
        if !root.join("Cargo.toml").is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no Cargo.toml; pass --root", root.display()),
            ));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
        })
    }

    /// The workspace root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Scans every workspace `.rs` file and runs all rules.
    pub fn check(&self) -> io::Result<CheckOutcome> {
        let mut files = Vec::new();
        collect_rs_files(&self.root, &mut files)?;
        files.sort();

        let mut features: BTreeMap<PathBuf, Vec<String>> = BTreeMap::new();
        let mut outcome = CheckOutcome::default();
        let mut analyses = Vec::with_capacity(files.len());
        for path in &files {
            let rel = relative_slash_path(&self.root, path);
            let source = fs::read_to_string(path)?;
            let analysis = FileAnalysis::new(&rel, &source);
            outcome
                .violations
                .extend(analysis.scanned.check_token_rules());
            if let Some(manifest_dir) = owning_manifest_dir(&self.root, path) {
                let declared = features.entry(manifest_dir.clone()).or_insert_with(|| {
                    declared_features(&manifest_dir.join("Cargo.toml")).unwrap_or_default()
                });
                outcome
                    .violations
                    .extend(analysis.scanned.check_feature_gates(declared));
            }
            outcome
                .violations
                .extend(symbols::check_unordered_iter(&analysis));
            outcome
                .violations
                .extend(symbols::check_rng_discipline(&analysis));
            analyses.push(analysis);
            outcome.files_scanned += 1;
        }
        // Workspace-level rules need the cross-file symbol table.
        let table = SymbolTable::build(&analyses);
        outcome
            .violations
            .extend(table.check_obs_catalog(&analyses));
        outcome
            .violations
            .extend(table.check_audit_exhaustiveness(&analyses));
        outcome
            .violations
            .sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
        Ok(outcome)
    }
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Nearest ancestor directory (within `root`) containing a `Cargo.toml`.
fn owning_manifest_dir(root: &Path, file: &Path) -> Option<PathBuf> {
    let mut dir = file.parent()?;
    loop {
        if dir.join("Cargo.toml").is_file() {
            return Some(dir.to_path_buf());
        }
        if dir == root {
            return None;
        }
        dir = dir.parent()?;
    }
}

/// Feature names declared in a crate manifest's `[features]` section.
/// Hand-rolled line parser: a feature declaration is a `name = [...]`
/// line between `[features]` and the next section header.
fn declared_features(manifest: &Path) -> io::Result<Vec<String>> {
    let text = fs::read_to_string(manifest)?;
    let mut in_features = false;
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_features = line == "[features]";
            continue;
        }
        if !in_features || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, _)) = line.split_once('=') {
            let name = name.trim().trim_matches('"');
            if !name.is_empty() {
                out.push(name.to_string());
            }
        }
    }
    // Optional dependencies implicitly declare a feature of the same
    // name; cover `dep = { ..., optional = true }` lines anywhere.
    for raw in text.lines() {
        let line = raw.trim();
        if line.contains("optional") && line.contains("true") {
            if let Some((name, _)) = line.split_once('=') {
                let name = name.trim().trim_matches('"');
                if !name.is_empty() && !out.contains(&name.to_string()) {
                    out.push(name.to_string());
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_features_parses_manifest() {
        let dir = std::env::temp_dir().join("react-analyze-feat-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let manifest = dir.join("Cargo.toml");
        fs::write(
            &manifest,
            "[package]\nname = \"x\"\n\n[features]\ndefault = []\nparallel = [\"dep/parallel\"]\n\
             debug-invariants = []\n\n[dependencies]\nserde = { version = \"1\", optional = true }\n",
        )
        .expect("write manifest");
        let feats = declared_features(&manifest).expect("parse");
        assert!(feats.contains(&"default".to_string()));
        assert!(feats.contains(&"parallel".to_string()));
        assert!(feats.contains(&"debug-invariants".to_string()));
        assert!(feats.contains(&"serde".to_string()));
        assert!(!feats.contains(&"name".to_string()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/repo");
        let file = Path::new("/repo/crates/core/src/lib.rs");
        assert_eq!(relative_slash_path(root, file), "crates/core/src/lib.rs");
    }
}
