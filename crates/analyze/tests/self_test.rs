//! Self-test for the invariant gate, covering the acceptance-side
//! behaviours:
//!
//! 1. a rule-violating line added to `react-core` is detected (the CLI
//!    exits non-zero exactly when the violation list is non-empty),
//! 2. the committed tree has zero violations,
//! 3. each symbol-aware rule family fires on a positive fixture, stays
//!    silent on the negative one, and honours its allow marker, and
//! 4. the real obs catalog has zero unknown call-site names and zero
//!    dead entries.

use std::fs;
use std::path::{Path, PathBuf};

use react_analyze::rules::{Rule, ScannedFile};
use react_analyze::symbols::{self, FileAnalysis, SymbolTable};
use react_analyze::Workspace;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Builds a throwaway workspace with one react-core source file.
fn synthetic_workspace(name: &str, core_source: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("react-analyze-self-{name}"));
    fs::remove_dir_all(&root).ok();
    let core_src = root.join("crates/core/src");
    fs::create_dir_all(&core_src).expect("mkdir");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("root manifest");
    fs::write(
        root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"react-core\"\nversion = \"0.1.0\"\n\n[features]\nparallel = []\n",
    )
    .expect("core manifest");
    fs::write(core_src.join("offender.rs"), core_source).expect("source");
    root
}

#[test]
fn violating_line_in_react_core_fails_the_gate() {
    let root = synthetic_workspace(
        "violations",
        "pub fn tick() {\n    let t = std::time::Instant::now();\n    let x = compute().unwrap();\n    if x == 0.5 {\n        let r = rand::thread_rng();\n    }\n}\n#[cfg(feature = \"turbo\")]\npub fn gated() {}\n",
    );
    let ws = Workspace::open(&root).expect("open synthetic workspace");
    let outcome = ws.check().expect("scan");
    let rules: Vec<Rule> = outcome.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&Rule::NoWallClock), "wall clock: {rules:?}");
    assert!(rules.contains(&Rule::NoPanicInLib), "panic: {rules:?}");
    assert!(rules.contains(&Rule::NoFloatEq), "float eq: {rules:?}");
    assert!(rules.contains(&Rule::NoAmbientRng), "rng: {rules:?}");
    assert!(rules.contains(&Rule::FeatureGateHygiene), "gate: {rules:?}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn adding_a_violation_to_existing_react_core_file_is_detected() {
    // Take a real react-core source file, count its violations, then
    // append an offending line and assert the count strictly grows.
    let path = repo_root().join("crates/core/src/scheduling.rs");
    let original = fs::read_to_string(&path).expect("read scheduling.rs");
    let rel = "crates/core/src/scheduling.rs";
    let before = ScannedFile::new(rel, &original).check_token_rules().len();
    let tampered = format!("{original}\npub fn sneak() {{ let t = std::time::Instant::now(); }}\n");
    let after = ScannedFile::new(rel, &tampered).check_token_rules().len();
    assert_eq!(
        after,
        before + 1,
        "appended wall-clock call must be flagged"
    );
}

#[test]
fn committed_tree_has_zero_violations() {
    let ws = Workspace::open(&repo_root()).expect("open repo");
    let outcome = ws.check().expect("scan repo");
    assert!(outcome.files_scanned > 50, "walker found the workspace");
    assert!(
        outcome.violations.is_empty(),
        "committed tree must pass the gate:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Per-family fixtures: (rule, positive, negative). The positive snippet
/// must produce exactly one violation of the family's rule in a
/// scheduling-visible core file; the negative must produce none; and the
/// positive with an `analyze: allow(<rule>)` marker on the flagged line
/// must produce none.
#[test]
fn symbol_rule_families_fire_and_respect_allow_markers() {
    let cases: Vec<(Rule, &str, &str)> = vec![
        (
            Rule::UnorderedHashIter,
            "struct S { m: HashMap<u64, u64> }\nimpl S {\n    fn f(&self) {\n        for v in self.m.values() {\n            schedule(v);\n        }\n    }\n}\n",
            "struct S { m: BTreeMap<u64, u64> }\nimpl S {\n    fn f(&self) {\n        for v in self.m.values() {\n            schedule(v);\n        }\n    }\n}\n",
        ),
        (
            Rule::RngStreamDiscipline,
            "fn f() {\n    let rng = SmallRng::seed_from_u64(12345);\n}\n",
            "fn f(streams: &RngStreams) {\n    let rng = streams.stream(\"arrivals\");\n}\n",
        ),
    ];
    for (rule, positive, negative) in cases {
        let check = |src: &str| {
            let fa = FileAnalysis::new("crates/core/src/fixture.rs", src);
            let mut v = symbols::check_unordered_iter(&fa);
            v.extend(symbols::check_rng_discipline(&fa));
            v
        };
        let pos = check(positive);
        assert_eq!(pos.len(), 1, "{rule}: positive fixture fires once: {pos:?}");
        assert_eq!(pos[0].rule, rule);
        assert!(
            check(negative).is_empty(),
            "{rule}: negative fixture stays silent"
        );
        // Allow marker on the flagged line suppresses.
        let flagged_line = pos[0].line - 1; // 0-based
        let mut lines: Vec<String> = positive.lines().map(str::to_string).collect();
        lines[flagged_line].push_str(&format!(" // analyze: allow({}) fixture", rule.name()));
        let allowed = check(&(lines.join("\n") + "\n"));
        assert!(allowed.is_empty(), "{rule}: allow marker suppresses");
    }
}

#[test]
fn obs_catalog_family_fires_on_typo_and_dead_entry() {
    let obs = FileAnalysis::new(
        "crates/obs/src/observer.rs",
        "pub enum CounterKind {\n    TasksAssigned,\n    Orphaned,\n}\nimpl CounterKind {\n    pub fn name(&self) -> &'static str {\n        match self {\n            CounterKind::TasksAssigned => \"tasks.assigned\",\n            CounterKind::Orphaned => \"tasks.orphaned\",\n        }\n    }\n}\n",
    );
    let good_user = FileAnalysis::new(
        "crates/metrics/src/kpi.rs",
        "fn f(r: &Registry) {\n    r.counter(\"tasks.assigned\");\n    obs(CounterKind::TasksAssigned);\n    obs(CounterKind::Orphaned);\n}\n",
    );
    let files = vec![obs.clone(), good_user];
    let table = SymbolTable::build(&files);
    assert!(
        table.check_obs_catalog(&files).is_empty(),
        "negative fixture stays silent"
    );

    let bad_user = FileAnalysis::new(
        "crates/metrics/src/kpi.rs",
        "fn f(r: &Registry) {\n    r.counter(\"tasks.asigned\");\n}\n",
    );
    let files = vec![obs, bad_user];
    let table = SymbolTable::build(&files);
    let v = table.check_obs_catalog(&files);
    // The typo'd call site, plus both catalog variants now dead (no
    // reference outside crates/obs).
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|x| x.rule == Rule::ObsCatalog));
    assert!(v.iter().any(|x| x.file.contains("metrics")), "typo flagged");
    assert!(
        v.iter().any(|x| x.file.contains("obs")),
        "dead entries flagged"
    );

    // Allow marker on a dead variant's declaration line suppresses it.
    let obs_allowed = FileAnalysis::new(
        "crates/obs/src/observer.rs",
        "pub enum CounterKind {\n    TasksAssigned,\n    // analyze: allow(obs-catalog) reserved for the ingest front-end\n    Orphaned,\n}\nimpl CounterKind {\n    pub fn name(&self) -> &'static str {\n        match self {\n            CounterKind::TasksAssigned => \"tasks.assigned\",\n            CounterKind::Orphaned => \"tasks.orphaned\",\n        }\n    }\n}\n",
    );
    let user = FileAnalysis::new(
        "crates/metrics/src/kpi.rs",
        "fn f(r: &Registry) {\n    obs(CounterKind::TasksAssigned);\n}\n",
    );
    let files = vec![obs_allowed, user];
    let table = SymbolTable::build(&files);
    assert!(
        table.check_obs_catalog(&files).is_empty(),
        "allow marker covers the dead variant"
    );
}

#[test]
fn audit_exhaustiveness_family_fires_on_missing_arm() {
    let check = |src: &str| {
        let files = vec![FileAnalysis::new("crates/core/src/events.rs", src)];
        SymbolTable::build(&files).check_audit_exhaustiveness(&files)
    };
    let positive = "pub enum TaskEventKind {\n    Submitted,\n    Vanished,\n}\npub fn verify_lifecycles() {\n    match k {\n        TaskEventKind::Submitted => {}\n        _ => {}\n    }\n}\n";
    let v = check(positive);
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, Rule::AuditEventExhaustiveness);
    let negative = "pub enum TaskEventKind {\n    Submitted,\n    Vanished,\n}\npub fn verify_lifecycles() {\n    match k {\n        TaskEventKind::Submitted => {}\n        TaskEventKind::Vanished => {}\n    }\n}\n";
    assert!(check(negative).is_empty(), "covered variants stay silent");
    let allowed = "pub enum TaskEventKind {\n    Submitted,\n    // analyze: allow(audit-event-exhaustiveness) synthetic marker event\n    Vanished,\n}\npub fn verify_lifecycles() {\n    match k {\n        TaskEventKind::Submitted => {}\n        _ => {}\n    }\n}\n";
    assert!(check(allowed).is_empty(), "allow marker suppresses");
}

/// The real workspace's observer catalog must be fully consistent: every
/// dotted name at a metric call site is declared, and every declared
/// variant is referenced outside `crates/obs`. This is the workspace-level
/// acceptance check — it holds the catalog at zero unknown/dead entries
/// going forward.
#[test]
fn real_obs_catalog_has_zero_unknown_and_zero_dead_entries() {
    let ws = Workspace::open(&repo_root()).expect("open repo");
    let outcome = ws.check().expect("scan repo");
    let catalog_violations: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::ObsCatalog)
        .collect();
    assert!(
        catalog_violations.is_empty(),
        "obs catalog must be consistent:\n{}",
        catalog_violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the catalog itself was actually discovered — an empty
    // catalog would make the check above pass vacuously.
    let analysis = FileAnalysis::new(
        "crates/obs/src/observer.rs",
        &fs::read_to_string(repo_root().join("crates/obs/src/observer.rs"))
            .expect("read observer.rs"),
    );
    let table = SymbolTable::build(&[analysis]);
    assert!(
        table.catalog_names().len() >= 30,
        "catalog discovery found {} names (expected the full span/counter/histogram tables)",
        table.catalog_names().len()
    );
}
