//! The lint rules and the token-level file scanner.
//!
//! The scanner is deliberately simple: it strips comments and string
//! literal *contents* from each line (so rule patterns never fire inside
//! documentation or message text), tracks `#[cfg(test)]` regions with a
//! brace counter (so rules can exempt test code), honours the
//! `analyze: allow(...)` / `analyze: allow-file(...)` escape markers, and
//! then matches plain token patterns. No macro expansion, no type
//! information — rules are written so that token-level matching is
//! sufficient (see each rule's docs for its exact heuristic).

use std::fmt;

/// The project rules enforced over workspace source files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No ambient wall-clock reads (`Instant::now`, `SystemTime::now`)
    /// or raw timing arithmetic (`.elapsed(`) outside the sanctioned
    /// clock module (`react-runtime::clock`) and the observability leaf
    /// crate (`react-obs`, whose `SpanTimer` is the one sanctioned way
    /// to measure a span). The same-seed ⇒ same-bytes guarantee
    /// depends on scheduling decisions never observing real time.
    NoWallClock,
    /// No ambient randomness (`thread_rng`, `from_entropy`,
    /// `rand::random`): RNGs must be seeded streams from
    /// `react-sim::rng` or injected `RngCore` handles, or reproducibility
    /// from a master seed is silently lost.
    NoAmbientRng,
    /// No `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!`
    /// in non-test code of the library crates (`react-core`,
    /// `react-matching`, `react-prob`): failures must surface as typed
    /// errors. (`debug_assert!` stays legal — it vanishes in release.)
    NoPanicInLib,
    /// No `==` / `!=` against floating-point literals: edge weights and
    /// fitness values are `f64`, and exact equality on computed floats is
    /// a latent bug. Heuristic: flags comparisons where either operand is
    /// a float literal (`x == 0.0`); variable-vs-variable comparisons are
    /// invisible to a token scanner and left to review.
    NoFloatEq,
    /// Every `feature = "name"` in a `cfg` must name a feature declared
    /// in the owning crate's `Cargo.toml`; an undeclared feature gate is
    /// dead code that silently never compiles.
    FeatureGateHygiene,
    /// No raw wall-clock sleeps in test code: `thread::sleep` in a test
    /// couples the suite to real time, which makes it slow at best and
    /// flaky under CI load at worst. Waiting must go through the
    /// `ScaledClock` conversion (`clock.to_wall(...)`) or stay in
    /// simulated time entirely. The inverse of the other rules: it fires
    /// *only* inside test code (`tests/` trees, `benches/`,
    /// `#[cfg(test)]` regions).
    NoSleepInTests,
    /// No unordered iteration over `HashMap`/`HashSet` bindings in
    /// scheduling-visible crates (`core`, `matching`, `cluster`, `crowd`,
    /// `faults`): hash iteration order varies across runs and toolchains,
    /// so any scheduling decision downstream of it silently breaks the
    /// same seed ⇒ same bytes guarantee. Symbol-aware: fires on
    /// `for`-loops and `.iter()`/`.keys()`/`.values()`/`.drain()` calls
    /// whose receiver resolves to a binding declared with a hash-ordered
    /// type in the same file, unless the surrounding statement sorts or
    /// collects into a `BTreeMap`/`BTreeSet` first.
    UnorderedHashIter,
    /// Every RNG must derive from a named stream: flags magic literal
    /// seeds (`seed_from_u64(42)` — use `RngStreams::stream("label")`,
    /// which SplitMix64-derives from the master seed) and RNG bindings
    /// declared *outside* a closure that is passed across a `.spawn(`
    /// thread boundary (shared RNG state across scoped threads makes
    /// draw order depend on interleaving). Complements `no-ambient-rng`,
    /// which catches `thread_rng`/`from_entropy` construction.
    RngStreamDiscipline,
    /// Observer-catalog consistency: every dotted metric-name string
    /// literal passed to a `counter(`/`histogram(`/`span(`/`series(`
    /// call site must name an entry of the catalog declared in
    /// `crates/obs` (the `SpanKind`/`CounterKind`/`HistogramKind`
    /// `name()` tables), and every catalog variant must be referenced
    /// somewhere outside `crates/obs` — an unknown name is a typo that
    /// silently records to a dead series, and an unreferenced variant is
    /// a dead catalog entry.
    ObsCatalog,
    /// Audit-event exhaustiveness: every `TaskEventKind` variant must
    /// appear in the lifecycle transition table that
    /// `verify_lifecycles` consults (`crates/core/src/events.rs`), so a
    /// new event kind cannot ship without a legality rule for replay
    /// verification.
    AuditEventExhaustiveness,
    /// No raw sockets (`std::net`, `TcpListener`, `TcpStream`,
    /// `UdpSocket`) outside the sanctioned wire boundary: the ingest
    /// front-end (`crates/runtime/src/ingest/`) and its load-generator
    /// counterpart (`crates/load/src/`). Network reads anywhere else
    /// would smuggle non-determinism (peer timing, kernel buffering)
    /// into code the replay guarantee covers. Test trees stay exempt —
    /// golden wire tests drive the boundary from outside.
    NetBoundary,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::NoWallClock,
    Rule::NoAmbientRng,
    Rule::NoPanicInLib,
    Rule::NoFloatEq,
    Rule::FeatureGateHygiene,
    Rule::NoSleepInTests,
    Rule::UnorderedHashIter,
    Rule::RngStreamDiscipline,
    Rule::ObsCatalog,
    Rule::AuditEventExhaustiveness,
    Rule::NetBoundary,
];

/// Whether `path` (workspace-relative, forward slashes) is a test-only
/// tree: integration tests, benches, or demo code.
pub(crate) fn in_test_tree(path: &str) -> bool {
    path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
}

impl Rule {
    /// The rule's stable name — used in `--explain`, reports and allow
    /// markers.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoAmbientRng => "no-ambient-rng",
            Rule::NoPanicInLib => "no-panic-in-lib",
            Rule::NoFloatEq => "no-float-eq",
            Rule::FeatureGateHygiene => "feature-gate-hygiene",
            Rule::NoSleepInTests => "no-sleep-in-tests",
            Rule::UnorderedHashIter => "unordered-hash-iter",
            Rule::RngStreamDiscipline => "rng-stream-discipline",
            Rule::ObsCatalog => "obs-catalog",
            Rule::AuditEventExhaustiveness => "audit-event-exhaustiveness",
            Rule::NetBoundary => "net-boundary",
        }
    }

    /// A one-paragraph explanation plus concrete fix guidance, for
    /// `react-analyze --explain <rule>`.
    pub fn explain(&self) -> (&'static str, &'static str) {
        match self {
            Rule::NoWallClock => (
                "Scheduling code must never observe real time: `Instant::now()`, \
                 `SystemTime::now()` and `.elapsed()` make decisions depend on host load, \
                 which breaks bit-identical replay from a seed.",
                "Thread simulated time through explicitly (crowd-seconds), measure spans \
                 with `react_obs::SpanTimer`, and keep real-time conversion inside \
                 `react-runtime`'s `ScaledClock`.",
            ),
            Rule::NoAmbientRng => (
                "`thread_rng()` / `from_entropy()` / `rand::random` pull entropy from the \
                 OS, so two runs with the same master seed diverge.",
                "Take an `&mut impl Rng` parameter, or derive a stream with \
                 `react_sim::rng::RngStreams::stream(\"label\")` — every draw then replays \
                 from the master seed.",
            ),
            Rule::NoPanicInLib => (
                "`unwrap()` / `expect()` / `panic!` in `react-core`, `react-matching` or \
                 `react-prob` turns a recoverable condition into a process abort inside \
                 the scheduling loop.",
                "Return `Result<_, ReactError>` (or keep the invariant in a \
                 `debug_assert!`, which vanishes in release builds).",
            ),
            Rule::NoFloatEq => (
                "Edge weights and fitness values are computed `f64`s; `==`/`!=` against a \
                 float literal is a latent always-false (or flaky) comparison.",
                "Compare against an epsilon band, use total ordering (`total_cmp`), or \
                 restate the condition on the integer quantity that produced the float.",
            ),
            Rule::FeatureGateHygiene => (
                "A `#[cfg(feature = \"name\")]` whose name is not declared in the owning \
                 crate's Cargo.toml compiles to silently-dead code.",
                "Declare the feature under `[features]` in the crate manifest, or fix the \
                 typo in the gate.",
            ),
            Rule::NoSleepInTests => (
                "`thread::sleep` in tests couples the suite to wall time: slow at best, \
                 flaky under CI load at worst.",
                "Sleep through the scaled clock (`thread::sleep(clock.to_wall(crowd_secs))`) \
                 so waits shrink with the test clock, or restructure the test to run in \
                 simulated time.",
            ),
            Rule::UnorderedHashIter => (
                "Iterating a `HashMap`/`HashSet` yields an arbitrary, run-dependent order; \
                 in scheduling-visible crates any decision downstream of that order breaks \
                 the same seed ⇒ same bytes guarantee probabilistically — exactly \
                 the class of bug proptests only catch sometimes.",
                "Switch the binding to `BTreeMap`/`BTreeSet`, or sort before use \
                 (`let mut v: Vec<_> = m.iter().collect(); v.sort_by_key(...)`), or collect \
                 into a `BTreeMap` in the same statement. Order-insensitive reductions \
                 (counting, summing) may carry `// analyze: allow(unordered-hash-iter) \
                 <why>` with a justification.",
            ),
            Rule::RngStreamDiscipline => (
                "A magic literal seed (`seed_from_u64(42)`) is not derived from the master \
                 seed, so it cannot be replayed or swept; an RNG captured by a closure \
                 crossing a `.spawn(` boundary makes draw order depend on thread \
                 interleaving.",
                "Derive RNGs from named streams: `RngStreams::new(master).stream(\"label\")` \
                 or `stream_indexed(\"label\", i)` for per-shard streams — each spawned \
                 closure must construct its own stream inside the closure body.",
            ),
            Rule::ObsCatalog => (
                "Metric names are declared once in `crates/obs` (`SpanKind` / `CounterKind` \
                 / `HistogramKind` and their `name()` tables). A dotted name at a \
                 `counter(`/`histogram(`/`span(`/`series(` call site that is not in the \
                 catalog records to a series no dashboard knows; a catalog variant never \
                 referenced outside `crates/obs` is dead weight.",
                "Fix the typo at the call site, or add the name to the catalog enum in \
                 `crates/obs/src/observer.rs`; delete (or wire up) dead variants.",
            ),
            Rule::AuditEventExhaustiveness => (
                "`verify_lifecycles` replays the audit log against a per-task legality \
                 table; a `TaskEventKind` variant missing from that table means the new \
                 event ships without any replay-time legality rule (PR 6's `HandedOff` \
                 almost did).",
                "Add a transition arm for the variant inside `fn verify_lifecycles` in \
                 `crates/core/src/events.rs` — both the states it is legal from and the \
                 state it moves the task to.",
            ),
            Rule::NetBoundary => (
                "Raw sockets (`std::net`, `TcpListener`/`TcpStream`/`UdpSocket`) outside \
                 the sanctioned wire boundary smuggle peer timing and kernel buffering \
                 into code covered by the bit-identical-replay guarantee.",
                "Keep socket I/O inside `crates/runtime/src/ingest/` (the door) or \
                 `crates/load/src/` (the generator); everything else exchanges messages \
                 over channels. Test trees may open sockets to drive the boundary from \
                 outside.",
            ),
        }
    }

    /// Parses a rule name (the inverse of [`Rule::name`]).
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Whether the rule applies to `path` (workspace-relative, forward
    /// slashes). Test-only trees (`tests/`, `benches/`) and demo code
    /// (`examples/`) are exempt from everything except feature-gate
    /// hygiene, which is checked by the workspace walker separately.
    pub fn applies_to(&self, path: &str) -> bool {
        if in_test_tree(path) {
            return matches!(
                self,
                Rule::FeatureGateHygiene | Rule::NoSleepInTests | Rule::ObsCatalog
            );
        }
        match self {
            Rule::NoWallClock => {
                path != "crates/runtime/src/clock.rs" && !path.starts_with("crates/obs/src/")
            }
            Rule::NoAmbientRng => path != "crates/sim/src/rng.rs",
            Rule::NoPanicInLib => {
                path.starts_with("crates/core/src/")
                    || path.starts_with("crates/matching/src/")
                    || path.starts_with("crates/prob/src/")
            }
            Rule::NoFloatEq => true,
            Rule::FeatureGateHygiene => true,
            // `#[cfg(test)]` modules live inside crate sources too.
            Rule::NoSleepInTests => true,
            Rule::UnorderedHashIter => [
                "crates/core/src/",
                "crates/matching/src/",
                "crates/cluster/src/",
                "crates/crowd/src/",
                "crates/faults/src/",
            ]
            .iter()
            .any(|p| path.starts_with(p)),
            Rule::RngStreamDiscipline => path != "crates/sim/src/rng.rs",
            Rule::ObsCatalog => true,
            // The transition table lives in one file; violations are
            // reported at the variant declarations there.
            Rule::AuditEventExhaustiveness => path == "crates/core/src/events.rs",
            Rule::NetBoundary => {
                !path.starts_with("crates/runtime/src/ingest/")
                    && !path.starts_with("crates/load/src/")
            }
        }
    }

    /// Whether violations inside `#[cfg(test)]` regions count.
    pub fn applies_to_test_code(&self) -> bool {
        matches!(
            self,
            Rule::FeatureGateHygiene | Rule::NoSleepInTests | Rule::ObsCatalog
        )
    }

    /// Whether the rule fires *only* inside test code (test trees and
    /// `#[cfg(test)]` regions) — the inverse scope of every other rule.
    pub fn test_only(&self) -> bool {
        matches!(self, Rule::NoSleepInTests)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// One source line after preprocessing.
#[derive(Debug, Clone)]
pub struct ScanLine {
    /// The line with comments and string-literal contents blanked.
    pub code: String,
    /// The comment text of the line (for allow markers).
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A preprocessed source file ready for rule matching.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The raw source lines (for snippets).
    pub raw_lines: Vec<String>,
    /// Preprocessed lines, parallel to `raw_lines`.
    pub lines: Vec<ScanLine>,
    /// Rules disabled for the whole file via `analyze: allow-file(...)`.
    pub file_allows: Vec<Rule>,
    /// Per-line allows: `(line index, rule)` pairs.
    pub line_allows: Vec<(usize, Rule)>,
}

impl ScannedFile {
    /// Preprocesses `source` (the contents of `path`).
    pub fn new(path: &str, source: &str) -> Self {
        let (code_text, comment_text) = strip_non_code(source);
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        let code_lines: Vec<&str> = code_text.lines().collect();
        let comment_lines: Vec<&str> = comment_text.lines().collect();
        let test_flags = mark_test_regions(&code_lines);

        let mut file_allows = Vec::new();
        let mut line_allows = Vec::new();
        for (i, comment) in comment_lines.iter().enumerate() {
            for rule in parse_markers(comment, "analyze: allow-file(") {
                file_allows.push(rule);
            }
            for rule in parse_markers(comment, "analyze: allow(") {
                let has_code = code_lines
                    .get(i)
                    .map(|c| !c.trim().is_empty())
                    .unwrap_or(false);
                // A standalone comment marker covers the next line.
                let target = if has_code { i } else { i + 1 };
                line_allows.push((target, rule));
            }
        }

        let n = raw_lines.len();
        let lines = (0..n)
            .map(|i| ScanLine {
                code: code_lines.get(i).unwrap_or(&"").to_string(),
                comment: comment_lines.get(i).unwrap_or(&"").to_string(),
                in_test: test_flags.get(i).copied().unwrap_or(false),
            })
            .collect();
        ScannedFile {
            path: path.to_string(),
            raw_lines,
            lines,
            file_allows,
            line_allows,
        }
    }

    pub(crate) fn allowed(&self, line_idx: usize, rule: Rule) -> bool {
        self.file_allows.contains(&rule)
            || self
                .line_allows
                .iter()
                .any(|&(l, r)| l == line_idx && r == rule)
    }

    /// Runs every applicable token rule over the file.
    /// ([`Rule::FeatureGateHygiene`] needs the crate's feature list and
    /// runs from [`crate::workspace`] via
    /// [`ScannedFile::check_feature_gates`].)
    pub fn check_token_rules(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let test_tree = in_test_tree(&self.path);
        for rule in [
            Rule::NoWallClock,
            Rule::NoAmbientRng,
            Rule::NoPanicInLib,
            Rule::NoFloatEq,
            Rule::NoSleepInTests,
            Rule::NetBoundary,
        ] {
            if !rule.applies_to(&self.path) {
                continue;
            }
            for (i, line) in self.lines.iter().enumerate() {
                let in_test = line.in_test || test_tree;
                if in_test && !rule.applies_to_test_code() {
                    continue;
                }
                if rule.test_only() && !in_test {
                    continue;
                }
                if !line_matches(rule, &line.code) || self.allowed(i, rule) {
                    continue;
                }
                out.push(self.violation(rule, i));
            }
        }
        out
    }

    /// Checks every `feature = "name"` gate against the declared feature
    /// names of the owning crate.
    pub fn check_feature_gates(&self, declared: &[String]) -> Vec<Violation> {
        let rule = Rule::FeatureGateHygiene;
        if !rule.applies_to(&self.path) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            // String contents are blanked by preprocessing, so the
            // feature name must be recovered from the raw line; the
            // blanked line still proves the gate is real code.
            if !line.code.contains("feature") {
                continue;
            }
            for name in feature_names_in(&self.raw_lines[i]) {
                if !declared.iter().any(|d| d == &name) && !self.allowed(i, rule) {
                    out.push(self.violation(rule, i));
                }
            }
        }
        out
    }

    pub(crate) fn violation(&self, rule: Rule, line_idx: usize) -> Violation {
        Violation {
            rule,
            file: self.path.clone(),
            line: line_idx + 1,
            snippet: self.raw_lines[line_idx].trim().to_string(),
        }
    }
}

/// Does one preprocessed code line violate `rule`?
fn line_matches(rule: Rule, code: &str) -> bool {
    match rule {
        Rule::NoWallClock => {
            code.contains("Instant::now")
                || code.contains("SystemTime::now")
                || code.contains(".elapsed(")
        }
        Rule::NoAmbientRng => {
            code.contains("thread_rng")
                || code.contains("from_entropy")
                || code.contains("rand::random")
        }
        Rule::NoPanicInLib => {
            code.contains(".unwrap()")
                || code.contains(".expect(")
                || code.contains("panic!(")
                || code.contains("todo!(")
                || code.contains("unimplemented!(")
        }
        Rule::NoFloatEq => has_float_literal_eq(code),
        Rule::FeatureGateHygiene => false, // handled by check_feature_gates
        Rule::NoSleepInTests => {
            // `clock.to_wall(...)` is the sanctioned ScaledClock
            // conversion; a sleep through it scales with the test clock.
            code.contains("thread::sleep") && !code.contains("to_wall(")
        }
        Rule::NetBoundary => {
            code.contains("std::net")
                || code.contains("TcpListener")
                || code.contains("TcpStream")
                || code.contains("UdpSocket")
        }
        // Symbol-aware rules run from `crate::symbols`, not per line.
        Rule::UnorderedHashIter
        | Rule::RngStreamDiscipline
        | Rule::ObsCatalog
        | Rule::AuditEventExhaustiveness => false,
    }
}

/// Detects `== <float literal>` / `!= <float literal>` (either operand
/// side). A float literal here is `digits '.' [digits]`, optionally with
/// an `f32`/`f64` suffix or exponent.
fn has_float_literal_eq(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        if two == "==" || two == "!=" {
            // Skip ===-like runs (not Rust, but be safe) and comparisons
            // that are part of `<=`/`>=` (previous char `<`/`>`).
            let prev = if i > 0 { bytes[i - 1] } else { b' ' };
            if prev != b'<' && prev != b'>' && prev != b'=' && bytes.get(i + 2) != Some(&b'=') {
                let left = code[..i].trim_end();
                let right = code[i + 2..].trim_start();
                if ends_with_float_literal(left) || starts_with_float_literal(right) {
                    return true;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s).trim_start();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i == 0 || i >= bytes.len() {
        return false;
    }
    // digits '.' — reject method calls like `0.max(...)` by requiring the
    // char after '.' to not start an identifier.
    if bytes[i] != b'.' {
        return false;
    }
    match bytes.get(i + 1) {
        None => true,
        Some(c) => c.is_ascii_digit() || !(c.is_ascii_alphabetic() || *c == b'_'),
    }
}

fn ends_with_float_literal(s: &str) -> bool {
    let s = s.trim_end();
    // Strip a type suffix (`0.5f64`).
    let s = s.strip_suffix("f64").unwrap_or(s);
    let s = s.strip_suffix("f32").unwrap_or(s);
    let bytes = s.as_bytes();
    let mut i = bytes.len();
    while i > 0 && bytes[i - 1].is_ascii_digit() {
        i -= 1;
    }
    let frac_digits = bytes.len() - i;
    if i == 0 || bytes[i - 1] != b'.' {
        return false;
    }
    // The '.' must follow digits (a literal like `1.0` / `3.`), not an
    // identifier (`x.0` is a tuple field — only flag when there are
    // fractional digits AND integer digits before the dot).
    let mut j = i - 1;
    while j > 0 && bytes[j - 1].is_ascii_digit() {
        j -= 1;
    }
    let int_digits = (i - 1) - j;
    if int_digits == 0 {
        return false;
    }
    // Reject tuple-field access `pair.0` by requiring the char before the
    // integer digits to not be '.' or an identifier char.
    if j > 0 {
        let c = bytes[j - 1];
        if c == b'.' || c.is_ascii_alphanumeric() || c == b'_' {
            return false;
        }
    }
    frac_digits > 0 || int_digits > 0
}

/// Extracts `feature = "name"` names from a raw source line.
fn feature_names_in(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("feature") {
        rest = &rest[pos + "feature".len()..];
        let after = rest.trim_start();
        if let Some(after_eq) = after.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            if let Some(stripped) = after_eq.strip_prefix('"') {
                if let Some(end) = stripped.find('"') {
                    out.push(stripped[..end].to_string());
                }
            }
        }
    }
    out
}

/// Parses `analyze: allow(<rule>)`-style markers out of comment text.
fn parse_markers(comment: &str, prefix: &str) -> Vec<Rule> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(prefix) {
        rest = &rest[pos + prefix.len()..];
        if let Some(end) = rest.find(')') {
            if let Some(rule) = Rule::from_name(rest[..end].trim()) {
                out.push(rule);
            }
        }
    }
    out
}

/// Splits source into a code-only copy and a comment-only copy (same
/// line structure; non-code bytes blanked with spaces in the code copy
/// and vice versa). String and char literal *contents* are blanked in
/// the code copy so token patterns never fire inside text.
fn strip_non_code(source: &str) -> (String, String) {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = State::Code;
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(source.len());
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    code.push(' ');
                    comment.push(c);
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    code.push(' ');
                    comment.push(c);
                }
                '"' => {
                    state = State::Str;
                    code.push('"');
                    comment.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            code.push(' ');
                            comment.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                    comment.push(' ');
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes
                    // within a few chars (`'a'`, `'\n'`, `'\u{1F600}'`);
                    // a lifetime never closes with a quote.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&'\\') {
                        j += 1;
                        if bytes.get(j) == Some(&'u') {
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                        } else {
                            j += 1;
                        }
                    } else if bytes.get(j).is_some() {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'\'') {
                        state = State::Char;
                        code.push('\'');
                        comment.push(' ');
                    } else {
                        code.push(c); // lifetime tick
                        comment.push(' ');
                    }
                }
                '\n' => {
                    code.push('\n');
                    comment.push('\n');
                }
                _ => {
                    code.push(c);
                    comment.push(' ');
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    code.push('\n');
                    comment.push('\n');
                } else {
                    code.push(' ');
                    comment.push(c);
                }
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    code.push('\n');
                    comment.push('\n');
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    code.push(' ');
                    code.push(' ');
                    comment.push('*');
                    comment.push('/');
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push(' ');
                    code.push(' ');
                    comment.push('/');
                    comment.push('*');
                    i += 2;
                    continue;
                } else {
                    code.push(' ');
                    comment.push(c);
                }
            }
            State::Str => match c {
                '\\' => {
                    // Preserve line structure when the escaped char is a
                    // newline (string line-continuation `\` at EOL).
                    let fill = if next == Some('\n') { '\n' } else { ' ' };
                    code.push(' ');
                    code.push(fill);
                    comment.push(' ');
                    comment.push(fill);
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Code;
                    code.push('"');
                    comment.push(' ');
                }
                '\n' => {
                    code.push('\n');
                    comment.push('\n');
                }
                _ => {
                    code.push(' ');
                    comment.push(' ');
                }
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Code;
                        code.push('"');
                        comment.push(' ');
                        for _ in 0..hashes {
                            code.push(' ');
                            comment.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                    code.push(' ');
                    comment.push(' ');
                } else if c == '\n' {
                    code.push('\n');
                    comment.push('\n');
                } else {
                    code.push(' ');
                    comment.push(' ');
                }
            }
            State::Char => {
                if c == '\'' {
                    state = State::Code;
                    code.push('\'');
                    comment.push(' ');
                } else if c == '\\' {
                    code.push(' ');
                    code.push(' ');
                    comment.push(' ');
                    comment.push(' ');
                    i += 2;
                    continue;
                } else {
                    code.push(' ');
                    comment.push(' ');
                }
            }
        }
        i += 1;
    }
    (code, comment)
}

/// Marks which lines fall inside `#[cfg(test)]` regions, by tracking the
/// brace depth of the item that follows the attribute.
fn mark_test_regions(code_lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut region_depth: Option<i64> = None;
    for (i, line) in code_lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            pending_attr = true;
        }
        if region_depth.is_some() {
            flags[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_attr && region_depth.is_none() {
                        region_depth = Some(depth);
                        pending_attr = false;
                        flags[i] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(rd) = region_depth {
                        if depth <= rd {
                            region_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Violation> {
        ScannedFile::new(path, src).check_token_rules()
    }

    #[test]
    fn wall_clock_flagged_outside_allowed_files() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = scan("crates/core/src/scheduling.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoWallClock);
        assert_eq!(v[0].line, 1);
        // The sanctioned clock module and the observability leaf crate
        // (home of `SpanTimer`) are exempt; the server is NOT — its
        // stage timings must go through `react_obs::SpanTimer`.
        assert!(scan("crates/runtime/src/clock.rs", src).is_empty());
        assert!(scan("crates/obs/src/timer.rs", src).is_empty());
        assert_eq!(scan("crates/core/src/server.rs", src).len(), 1);
    }

    #[test]
    fn raw_timing_arithmetic_flagged() {
        let src = "fn f(t: std::time::Instant) -> f64 { t.elapsed().as_secs_f64() }\n";
        let v = scan("crates/core/src/server.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoWallClock);
        assert!(scan("crates/obs/src/timer.rs", src).is_empty());
        // Identifiers merely containing the word are not flagged.
        assert!(scan(
            "crates/core/src/server.rs",
            "let elapsed = timings.total();\n"
        )
        .is_empty());
    }

    #[test]
    fn ambient_rng_flagged() {
        let src = "fn f() { let mut r = rand::thread_rng(); }\n";
        let v = scan("crates/crowd/src/runner.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoAmbientRng);
    }

    #[test]
    fn panic_hygiene_scoped_to_lib_crates() {
        let src = "fn f() { x.unwrap(); y.expect(\"boom\"); panic!(\"no\"); }\n";
        let v = scan("crates/core/src/weight.rs", src);
        assert_eq!(v.len(), 1, "one violation per line, not per token");
        assert_eq!(v[0].rule, Rule::NoPanicInLib);
        // Outside the three lib crates the rule is silent.
        assert!(scan("crates/crowd/src/runner.rs", src).is_empty());
    }

    #[test]
    fn float_eq_heuristic() {
        for bad in [
            "if weight == 0.0 {",
            "if 1.5 != x {",
            "let b = f == 0.25f64;",
            "while x != 10.0 {",
        ] {
            assert_eq!(
                scan("crates/geo/src/grid.rs", &format!("{bad}\n")).len(),
                1,
                "{bad}"
            );
        }
        for good in [
            "if weight <= 0.0 {",
            "if a == b {",
            "if pair.0 == other.0 {",
            "if n == 10 {",
            "let s = \"x == 0.0\";",
            "// weight == 0.0 would be wrong",
        ] {
            assert!(
                scan("crates/geo/src/grid.rs", &format!("{good}\n")).is_empty(),
                "{good}"
            );
        }
    }

    #[test]
    fn comments_strings_and_chars_do_not_fire() {
        let src = r#"
// Instant::now() in a comment
/* thread_rng in a block comment */
fn f() {
    let s = "Instant::now()";
    let c = '"';
    let after_char_literal = Instant::now(); // real violation
}
"#;
        let v = scan("crates/geo/src/grid.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(scan("crates/core/src/weight.rs", src).is_empty());
        // ...but code after the test module is scanned again.
        let src2 = format!("{src}fn h() {{ y.unwrap(); }}\n");
        let v = scan("crates/core/src/weight.rs", &src2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn allow_markers_suppress() {
        let line_marker =
            "fn f() { let t = Instant::now(); } // analyze: allow(no-wall-clock) legit\n";
        assert!(scan("crates/geo/src/grid.rs", line_marker).is_empty());
        let standalone = "// analyze: allow(no-wall-clock) next line is sanctioned\nfn f() { let t = Instant::now(); }\n";
        assert!(scan("crates/geo/src/grid.rs", standalone).is_empty());
        let file_marker = "// analyze: allow-file(no-wall-clock) benchmark harness\nfn f() { let t = Instant::now(); }\nfn g() { let t = Instant::now(); }\n";
        assert!(scan("crates/geo/src/grid.rs", file_marker).is_empty());
        // A marker for a different rule does not suppress.
        let wrong = "fn f() { let t = Instant::now(); } // analyze: allow(no-float-eq)\n";
        assert_eq!(scan("crates/geo/src/grid.rs", wrong).len(), 1);
    }

    #[test]
    fn feature_gate_check_uses_declared_list() {
        let src =
            "#[cfg(feature = \"turbo\")]\nfn f() {}\n#[cfg(feature = \"tubro\")]\nfn g() {}\n";
        let file = ScannedFile::new("crates/core/src/server.rs", src);
        let v = file.check_feature_gates(&["turbo".to_string()]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FeatureGateHygiene);
        assert_eq!(v[0].line, 3);
        assert!(file
            .check_feature_gates(&["turbo".to_string(), "tubro".to_string()])
            .is_empty());
    }

    #[test]
    fn raw_sleeps_flagged_in_test_code_only() {
        let sleep = "fn f() { std::thread::sleep(Duration::from_millis(20)); }\n";
        // Test trees: flagged.
        let v = scan("tests/fault_recovery.rs", sleep);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoSleepInTests);
        // `#[cfg(test)]` regions inside crate sources: flagged too.
        let src = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    {sleep}}}\n");
        let v = scan("crates/runtime/src/clock.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoSleepInTests);
        // Non-test code is out of scope (the runtime's own clock-driven
        // sleep is legal — and goes through `to_wall` anyway).
        assert!(scan("crates/runtime/src/runtime.rs", sleep).is_empty());
        // The sanctioned ScaledClock conversion is exempt everywhere.
        let scaled = "fn f() { thread::sleep(clock.to_wall(wait)); }\n";
        assert!(scan("tests/end_to_end.rs", scaled).is_empty());
        // Allow markers still work.
        let allowed =
            "fn f() { std::thread::sleep(d); } // analyze: allow(no-sleep-in-tests) why\n";
        assert!(scan("tests/end_to_end.rs", allowed).is_empty());
    }

    #[test]
    fn tests_dir_exempt_from_token_rules() {
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }\n";
        assert!(scan("tests/end_to_end.rs", src).is_empty());
        assert!(scan("crates/core/benches/fig3.rs", src).is_empty());
        assert!(scan("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn sockets_flagged_outside_the_wire_boundary() {
        let src = "fn f() { let l = std::net::TcpListener::bind(addr); }\n";
        // Scheduling-visible code: flagged once per offending line.
        let v = scan("crates/core/src/server.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NetBoundary);
        // The sanctioned boundary on both sides of the wire is exempt.
        assert!(scan("crates/runtime/src/ingest/server.rs", src).is_empty());
        assert!(scan("crates/load/src/client.rs", src).is_empty());
        // But the rest of the runtime crate is not.
        let v = scan("crates/runtime/src/runtime.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NetBoundary);
        // Test trees drive the boundary from outside — exempt.
        assert!(scan("tests/wire_protocol.rs", src).is_empty());
        // All the socket tokens are covered.
        for token in ["TcpStream::connect(a)", "UdpSocket::bind(a)"] {
            let src = format!("fn f() {{ let s = {token}; }}\n");
            let v = scan("crates/crowd/src/runner.rs", &src);
            assert_eq!(v.len(), 1, "{token} must be flagged");
        }
        // Allow markers still work.
        let allowed = "fn f() { let s = TcpStream::connect(a); } \
// analyze: allow(net-boundary) health probe\n";
        assert!(scan("crates/cluster/src/router.rs", allowed).is_empty());
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}
