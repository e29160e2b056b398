//! The cross-file symbol table and the symbol-aware rule checks.
//!
//! Two of the new rule families are per-file (they only need the file's
//! own bindings): [`check_unordered_iter`] and [`check_rng_discipline`].
//! The other two are workspace-level and run off a [`SymbolTable`] built
//! from every parsed file: [`SymbolTable::check_obs_catalog`]
//! (call-site metric names vs. the `crates/obs` catalog, both directions)
//! and [`SymbolTable::check_audit_exhaustiveness`] (every
//! `TaskEventKind` variant must appear in `verify_lifecycles`'
//! transition table).

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{ItemKind, ParsedFile};
use crate::rules::{in_test_tree, Rule, ScannedFile, Violation};

/// One scanned + parsed file, the unit the symbol-aware checks consume.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// The token-level scan (code/comment split, test regions, allows).
    pub scanned: ScannedFile,
    /// The structural model.
    pub parsed: ParsedFile,
}

impl FileAnalysis {
    /// Scans and parses `source` as `path`.
    pub fn new(path: &str, source: &str) -> Self {
        let scanned = ScannedFile::new(path, source);
        let parsed = ParsedFile::parse(&scanned);
        FileAnalysis { scanned, parsed }
    }
}

/// The obs catalog enums, declared under [`OBS_DIR`].
const OBS_ENUMS: [&str; 3] = ["SpanKind", "CounterKind", "HistogramKind"];
/// Where the observer catalog lives.
const OBS_DIR: &str = "crates/obs/src/";
/// Call-site callees whose dotted string argument must be a catalog name.
const METRIC_CALLEES: [&str; 4] = ["counter", "histogram", "span", "series"];
/// The audit-event enum checked for transition-table exhaustiveness.
const AUDIT_ENUM: &str = "TaskEventKind";
/// The file declaring both the enum and the transition table.
const AUDIT_FILE: &str = "crates/core/src/events.rs";
/// The function whose body is the transition table.
const AUDIT_TABLE_FN: &str = "verify_lifecycles";

/// Iterator-producing method suffixes whose receiver order is observable.
const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Checks [`Rule::UnorderedHashIter`] over one file: iteration over a
/// binding whose declared type (in this file) is `HashMap`/`HashSet`,
/// unless the surrounding statement window sorts or re-collects into an
/// ordered container.
pub fn check_unordered_iter(fa: &FileAnalysis) -> Vec<Violation> {
    let rule = Rule::UnorderedHashIter;
    let path = &fa.scanned.path;
    if !rule.applies_to(path) || in_test_tree(path) {
        return Vec::new();
    }
    let hash_names: BTreeSet<&str> = fa.parsed.hash_names().into_iter().collect();
    if hash_names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in fa.scanned.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut hit = false;
        for m in ITER_METHODS {
            let mut from = 0;
            while let Some(rel) = line.code[from..].find(m) {
                let pos = from + rel;
                if let Some(name) = ident_ending_at(&line.code, pos) {
                    if hash_names.contains(name) {
                        hit = true;
                    }
                }
                from = pos + m.len();
            }
        }
        if !hit {
            if let Some(expr) = for_loop_expr(&line.code) {
                if let Some(name) = expr.rsplit('.').next() {
                    if hash_names.contains(name) {
                        hit = true;
                    }
                }
            }
        }
        if !hit || fa.scanned.allowed(i, rule) {
            continue;
        }
        // Sanctioned when the statement window sorts or re-collects into
        // an ordered container: look at this line plus the next few
        // (multi-line iterator chains ending in `.collect::<BTreeMap>()`
        // or a `v.sort()` immediately after).
        let window_end = (i + 5).min(fa.scanned.lines.len());
        let sanctioned = fa.scanned.lines[i..window_end]
            .iter()
            .any(|l| l.code.contains("sort") || l.code.contains("BTree"));
        if sanctioned {
            continue;
        }
        out.push(fa.scanned.violation(rule, i));
    }
    out
}

/// The iterated expression of a `for <pat> in <expr> {` line, when the
/// expression is a plain (possibly `&`-prefixed, possibly dotted)
/// identifier path. Ranges, calls and anything more structured return
/// `None` — method-call receivers are handled by the `ITER_METHODS` scan.
fn for_loop_expr(code: &str) -> Option<&str> {
    let pos = find_word(code, "for")?;
    let in_pos = code[pos..].find(" in ")? + pos;
    let rest = &code[in_pos + 4..];
    let expr = rest.split('{').next()?.trim();
    let expr = expr
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    if expr.is_empty()
        || !expr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        || expr.contains("..")
    {
        return None;
    }
    Some(expr)
}

/// Checks [`Rule::RngStreamDiscipline`] over one file: magic literal
/// seeds, and RNG bindings declared outside a `.spawn(` closure but
/// referenced inside it.
pub fn check_rng_discipline(fa: &FileAnalysis) -> Vec<Violation> {
    let rule = Rule::RngStreamDiscipline;
    let path = &fa.scanned.path;
    if !rule.applies_to(path) || in_test_tree(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Magic literal seeds: `seed_from_u64(` whose first argument char is
    // a digit. Derived seeds (`seed_from_u64(splitmix64(...))`,
    // `seed_from_u64(master ^ i)`) start with an identifier and pass.
    for (i, line) in fa.scanned.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut from = 0;
        while let Some(rel) = line.code[from..].find("seed_from_u64(") {
            let pos = from + rel + "seed_from_u64(".len();
            let arg = line.code[pos..].trim_start();
            if arg.chars().next().is_some_and(|c| c.is_ascii_digit())
                && !fa.scanned.allowed(i, rule)
            {
                out.push(fa.scanned.violation(rule, i));
                break;
            }
            from = pos;
        }
    }
    // Cross-thread RNG capture: an RNG binding declared before a
    // `.spawn(` closure and referenced inside its span. A same-named
    // binding declared inside the span shadows the outer one and is fine.
    for spawn in &fa.parsed.spawns {
        for binding in fa.parsed.rng_bindings() {
            if binding.line >= spawn.start_line && binding.line <= spawn.end_line {
                continue; // declared inside the closure
            }
            if binding.line > spawn.end_line {
                continue; // declared after; can't be captured
            }
            let shadowed = fa.parsed.rng_bindings().iter().any(|b| {
                b.name == binding.name && b.line >= spawn.start_line && b.line <= spawn.end_line
            });
            if shadowed {
                continue;
            }
            for j in spawn.start_line..=spawn.end_line.min(fa.scanned.lines.len() - 1) {
                let line = &fa.scanned.lines[j];
                if line.in_test {
                    continue;
                }
                // Skip the declaration-bearing spawn line itself when the
                // binding is a parameter of the spawning function.
                if j == binding.line {
                    continue;
                }
                if find_word(&line.code, &binding.name).is_some() && !fa.scanned.allowed(j, rule) {
                    out.push(fa.scanned.violation(rule, j));
                    break; // one report per (binding, spawn)
                }
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out.dedup();
    out
}

/// One `Enum::Variant` path reference (the referencing file). A test
/// reference still counts as "alive" for the dead-entry check: a catalog
/// series exercised only by tests is a test-coverage question, not a
/// catalog typo.
#[derive(Debug, Clone)]
struct VariantRef {
    file: String,
}

/// The workspace symbol table: enum definitions and `Enum::Variant`
/// references, plus the obs catalog names.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// `(enum name, variant) ->` every reference site.
    variant_refs: BTreeMap<(String, String), Vec<VariantRef>>,
    /// Catalog metric names declared in the obs `name()` tables.
    catalog_names: BTreeSet<String>,
}

impl SymbolTable {
    /// Builds the table from every analysed file.
    pub fn build(files: &[FileAnalysis]) -> Self {
        let mut table = SymbolTable::default();
        for fa in files {
            for line in &fa.scanned.lines {
                collect_variant_refs(&line.code, |enum_name, variant| {
                    table
                        .variant_refs
                        .entry((enum_name.to_string(), variant.to_string()))
                        .or_default()
                        .push(VariantRef {
                            file: fa.scanned.path.clone(),
                        });
                });
            }
            // Catalog names: dotted string literals in non-test obs code
            // that are not call arguments — i.e. the `name()` match-arm
            // tables (`CounterKind::TasksAssigned => "tasks.assigned"`).
            if fa.scanned.path.starts_with(OBS_DIR) {
                for lit in &fa.parsed.strings {
                    if !lit.in_test && lit.callee.is_none() && is_dotted_name(&lit.text) {
                        table.catalog_names.insert(lit.text.clone());
                    }
                }
            }
        }
        table
    }

    /// The catalog names discovered in `crates/obs`.
    pub fn catalog_names(&self) -> &BTreeSet<String> {
        &self.catalog_names
    }

    /// Checks [`Rule::ObsCatalog`] in both directions: unknown dotted
    /// names at metric call sites, and catalog variants never referenced
    /// outside `crates/obs`.
    pub fn check_obs_catalog(&self, files: &[FileAnalysis]) -> Vec<Violation> {
        let rule = Rule::ObsCatalog;
        let mut out = Vec::new();
        // Direction 1: unknown names at call sites.
        for fa in files {
            if !rule.applies_to(&fa.scanned.path) {
                continue;
            }
            for lit in &fa.parsed.strings {
                let Some(callee) = lit.callee.as_deref() else {
                    continue;
                };
                if !METRIC_CALLEES.contains(&callee) || !is_dotted_name(&lit.text) {
                    continue;
                }
                if self.catalog_names.contains(lit.text.as_str())
                    || fa.scanned.allowed(lit.line, rule)
                {
                    continue;
                }
                out.push(fa.scanned.violation(rule, lit.line));
            }
        }
        // Direction 2: dead catalog entries — a variant of the obs enums
        // with no `Enum::Variant` reference outside `crates/obs/src/`.
        for fa in files {
            if !fa.scanned.path.starts_with(OBS_DIR) {
                continue;
            }
            for def in &fa.parsed.enums {
                if !OBS_ENUMS.contains(&def.name.as_str()) || def.in_test {
                    continue;
                }
                for (variant, line) in &def.variants {
                    let key = (def.name.clone(), variant.clone());
                    let alive = self
                        .variant_refs
                        .get(&key)
                        .is_some_and(|refs| refs.iter().any(|r| !r.file.starts_with(OBS_DIR)));
                    if !alive && !fa.scanned.allowed(*line, rule) {
                        out.push(fa.scanned.violation(rule, *line));
                    }
                }
            }
        }
        out
    }

    /// Checks [`Rule::AuditEventExhaustiveness`]: every variant of
    /// `TaskEventKind` must be referenced inside the span of
    /// `fn verify_lifecycles` in `crates/core/src/events.rs`.
    pub fn check_audit_exhaustiveness(&self, files: &[FileAnalysis]) -> Vec<Violation> {
        let rule = Rule::AuditEventExhaustiveness;
        let mut out = Vec::new();
        for fa in files {
            if fa.scanned.path != AUDIT_FILE {
                continue;
            }
            let Some(def) = fa
                .parsed
                .enums
                .iter()
                .find(|d| d.name == AUDIT_ENUM && !d.in_test)
            else {
                continue;
            };
            let table_fn = fa
                .parsed
                .items
                .iter()
                .find(|it| it.kind == ItemKind::Fn && it.name == AUDIT_TABLE_FN);
            for (variant, decl_line) in &def.variants {
                let covered = table_fn.is_some_and(|f| {
                    (f.line..=f.end_line).any(|j| {
                        fa.scanned
                            .lines
                            .get(j)
                            .map(|l| {
                                l.code.contains(&format!("{AUDIT_ENUM}::{variant}"))
                                    || line_names_variant(&l.code, variant)
                            })
                            .unwrap_or(false)
                    })
                });
                if !covered && !fa.scanned.allowed(*decl_line, rule) {
                    out.push(fa.scanned.violation(rule, *decl_line));
                }
            }
        }
        out
    }
}

/// Does `code` reference `variant` as a bare enum path segment
/// (`Kind::Variant` imported via `use TaskEventKind::*` patterns are out
/// of idiom here, but match arms inside the table may shorten the path
/// after a `use super::TaskEventKind as K;` — cover `::Variant`).
fn line_names_variant(code: &str, variant: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find("::") {
        let pos = from + rel + 2;
        if ident_starting_at(code, pos) == Some(variant) {
            return true;
        }
        from = pos;
    }
    false
}

/// Calls `sink(enum_name, variant)` for every `Upper::ident` path pair
/// in one code line.
fn collect_variant_refs(code: &str, mut sink: impl FnMut(&str, &str)) {
    let mut from = 0;
    while let Some(rel) = code[from..].find("::") {
        let pos = from + rel;
        let before = ident_ending_at(code, pos);
        let after = ident_starting_at(code, pos + 2);
        if let (Some(b), Some(a)) = (before, after) {
            if b.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && a.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            {
                sink(b, a);
            }
        }
        from = pos + 2;
    }
}

/// A catalog-shaped metric name: lowercase dotted segments
/// (`tasks.assigned`, `tick.match`).
fn is_dotted_name(s: &str) -> bool {
    if !s.contains('.') {
        return false;
    }
    s.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// The identifier ending at byte offset `end` of `s` (exclusive), if any.
fn ident_ending_at(s: &str, end: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        return None;
    }
    Some(&s[start..end])
}

/// The identifier starting at byte offset `start` of `s`, if any.
fn ident_starting_at(s: &str, start: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    if start >= bytes.len() || !is_ident_byte(bytes[start]) || bytes[start].is_ascii_digit() {
        return None;
    }
    let mut end = start;
    while end < bytes.len() && is_ident_byte(bytes[end]) {
        end += 1;
    }
    Some(&s[start..end])
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `word` in `code` with identifier boundaries on both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = bytes.get(after).is_none_or(|&b| !is_ident_byte(b));
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(path: &str, src: &str) -> FileAnalysis {
        FileAnalysis::new(path, src)
    }

    #[test]
    fn unordered_iter_flags_hash_receivers() {
        let src = "struct S { tasks: HashMap<u64, Task> }\nimpl S {\n    fn f(&self) {\n        for (_, t) in self.tasks.iter() {\n            use_task(t);\n        }\n    }\n}\n";
        let v = check_unordered_iter(&analyze("crates/core/src/x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnorderedHashIter);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn unordered_iter_ignores_btree_and_sorted_sites() {
        // BTreeMap binding: ordered, never flagged.
        let btree = "struct S { tasks: BTreeMap<u64, Task> }\nfn f(s: &S) { for t in s.tasks.values() { go(t); } }\n";
        assert!(check_unordered_iter(&analyze("crates/core/src/x.rs", btree)).is_empty());
        // Hash binding, but the statement window sorts first.
        let sorted = "fn f(seen: HashSet<u64>) {\n    let mut v: Vec<_> = seen.iter().collect();\n    v.sort();\n}\n";
        assert!(check_unordered_iter(&analyze("crates/core/src/x.rs", sorted)).is_empty());
        // Out-of-scope crate.
        let src = "fn f(m: HashMap<u64, u64>) { for k in m.keys() { go(k); } }\n";
        assert!(check_unordered_iter(&analyze("crates/obs/src/x.rs", src)).is_empty());
        // Test code is exempt.
        let test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        assert!(check_unordered_iter(&analyze("crates/core/src/x.rs", &test)).is_empty());
    }

    #[test]
    fn unordered_iter_for_loop_and_allow_marker() {
        let src = "fn f(group_state: HashMap<u64, bool>) {\n    for (_, v) in group_state {\n        count(v);\n    }\n}\n";
        let v = check_unordered_iter(&analyze("crates/crowd/src/x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        let allowed = "fn f(group_state: HashMap<u64, bool>) {\n    // analyze: allow(unordered-hash-iter) commutative count\n    for (_, v) in group_state {\n        count(v);\n    }\n}\n";
        assert!(check_unordered_iter(&analyze("crates/crowd/src/x.rs", allowed)).is_empty());
    }

    #[test]
    fn rng_discipline_flags_magic_seeds() {
        let src = "fn f() { let rng = SmallRng::seed_from_u64(42); }\n";
        let v = check_rng_discipline(&analyze("crates/core/src/x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RngStreamDiscipline);
        // Derived seeds pass.
        let derived = "fn f(s: u64) { let rng = SmallRng::seed_from_u64(splitmix64(s)); }\n";
        assert!(check_rng_discipline(&analyze("crates/core/src/x.rs", derived)).is_empty());
        // The stream factory itself is exempt.
        assert!(check_rng_discipline(&analyze("crates/sim/src/rng.rs", src)).is_empty());
        // Test code is exempt (fixed seeds in tests are fine).
        let test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        assert!(check_rng_discipline(&analyze("crates/core/src/x.rs", &test)).is_empty());
    }

    #[test]
    fn rng_discipline_flags_cross_spawn_capture() {
        let src = "fn f(rng: &mut SmallRng, scope: &Scope) {\n    scope.spawn(move || {\n        draw(rng);\n    });\n}\n";
        let v = check_rng_discipline(&analyze("crates/core/src/x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        // A stream constructed inside the closure passes.
        let inside = "fn f(streams: &RngStreams, scope: &Scope) {\n    scope.spawn(move || {\n        let mut rng = streams.stream_indexed(\"region\", i);\n        draw(&mut rng);\n    });\n}\n";
        assert!(check_rng_discipline(&analyze("crates/core/src/x.rs", inside)).is_empty());
        // Allow marker suppresses.
        let allowed = "fn f(rng: &mut SmallRng, scope: &Scope) {\n    scope.spawn(move || {\n        draw(rng); // analyze: allow(rng-stream-discipline) single thread\n    });\n}\n";
        assert!(check_rng_discipline(&analyze("crates/core/src/x.rs", allowed)).is_empty());
    }

    #[test]
    fn obs_catalog_cross_checks_names() {
        let obs = analyze(
            "crates/obs/src/observer.rs",
            "pub enum CounterKind {\n    TasksAssigned,\n    NeverUsed,\n}\nimpl CounterKind {\n    pub fn name(&self) -> &'static str {\n        match self {\n            CounterKind::TasksAssigned => \"tasks.assigned\",\n            CounterKind::NeverUsed => \"never.used\",\n        }\n    }\n}\n",
        );
        let user = analyze(
            "crates/metrics/src/kpi.rs",
            "fn f(reg: &Registry) {\n    reg.counter(\"tasks.assigned\");\n    reg.counter(\"tasks.asigned\");\n    obs.record(CounterKind::TasksAssigned);\n}\n",
        );
        let files = vec![obs, user];
        let table = SymbolTable::build(&files);
        assert!(table.catalog_names().contains("tasks.assigned"));
        let v = table.check_obs_catalog(&files);
        // One typo at the call site + one dead variant.
        assert_eq!(v.len(), 2, "{v:#?}");
        assert!(v
            .iter()
            .any(|x| x.file == "crates/metrics/src/kpi.rs" && x.line == 3));
        assert!(v
            .iter()
            .any(|x| x.file == "crates/obs/src/observer.rs" && x.line == 3));
    }

    #[test]
    fn audit_exhaustiveness_requires_table_arm() {
        let src = "pub enum TaskEventKind {\n    Submitted,\n    Vanished,\n}\npub fn verify_lifecycles() {\n    match kind {\n        TaskEventKind::Submitted => {}\n        _ => {}\n    }\n}\n";
        let fa = analyze("crates/core/src/events.rs", src);
        let files = vec![fa];
        let table = SymbolTable::build(&files);
        let v = table.check_audit_exhaustiveness(&files);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].rule, Rule::AuditEventExhaustiveness);
        assert_eq!(v[0].line, 3, "reported at the Vanished declaration");
        // Same enum in any other file is not audited.
        let elsewhere = analyze("crates/cluster/src/events.rs", src);
        let files = vec![elsewhere];
        let table = SymbolTable::build(&files);
        assert!(table.check_audit_exhaustiveness(&files).is_empty());
    }
}
