//! The `results/` inventory is closed: the figure tables the registered
//! suites declare — minus the wall-clock ones `.gitignore` keeps out of
//! the tree — are exactly the CSVs checked in. A suite that grows,
//! renames or loses a table (or is deleted without its CSV) fails here
//! instead of leaving a stale file behind.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn declared_figure_tables_equal_the_checked_in_csvs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    // `/results/<name>.csv` lines of .gitignore (globs are not tables).
    let gitignore = std::fs::read_to_string(root.join(".gitignore")).expect(".gitignore");
    let ignored: BTreeSet<&str> = gitignore
        .lines()
        .filter_map(|line| line.strip_prefix("/results/")?.strip_suffix(".csv"))
        .filter(|name| !name.contains('*'))
        .collect();

    let suites = react_experiments::registry();
    let declared: Vec<&str> = suites.iter().flat_map(|suite| suite.figures()).collect();
    let unique: BTreeSet<&str> = declared.iter().copied().collect();
    assert_eq!(unique.len(), declared.len(), "figure names collide");
    assert!(
        ignored.is_subset(&unique),
        "ignored tables must be declared"
    );

    let checked_in: BTreeSet<String> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        // Leftovers of a local rerun are ignored by git, and here.
        .filter(|file| !file.contains(".prev.") && !file.contains(".kpi."))
        .filter_map(|file| file.strip_suffix(".csv").map(str::to_string))
        .filter(|name| !ignored.contains(name.as_str()))
        .collect();
    let expected: BTreeSet<String> = unique
        .difference(&ignored)
        .map(|name| name.to_string())
        .collect();
    assert_eq!(checked_in, expected);
}
