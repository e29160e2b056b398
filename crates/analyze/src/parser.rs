//! A lightweight item-level Rust parser built on the token scanner.
//!
//! The workspace has no `syn` (fully offline, no vendored parser), so the
//! symbol-aware rules run on a deliberately small structural model
//! recovered from the comment/string-blanked code text of a
//! [`ScannedFile`]:
//!
//! * **items** — `fn` / `struct` / `enum` / `trait` / `mod` / `impl`
//!   declarations with their brace-delimited line spans;
//! * **enum definitions** — variant names with declaration lines (the
//!   observer catalog and audit-event rules key off these);
//! * **bindings** — `let` locals, struct fields and `fn` parameters whose
//!   declared type or initializer classifies them as hash-ordered
//!   collections (`HashMap`/`HashSet`) or RNGs (`SmallRng`, `StdRng`,
//!   `impl Rng`, `RngCore`);
//! * **string literals** — with line and, for single-line literals that
//!   are the first argument of a call, the callee identifier
//!   (`counter("tasks.assigned")` → callee `counter`);
//! * **spawn sites** — the line spans of `.spawn(...)` call arguments,
//!   i.e. closures that cross a thread boundary.
//!
//! The model is heuristic: no macro expansion, no generics resolution, no
//! cross-statement type inference. Rules built on it are written so that
//! a miss is a false *negative* (the escape hatch for the rare false
//! positive is the `analyze: allow(...)` marker).

use crate::rules::ScannedFile;

/// What kind of item a declaration introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function (`fn`).
    Fn,
    /// A struct.
    Struct,
    /// An enum.
    Enum,
    /// A trait.
    Trait,
    /// An inline module.
    Mod,
    /// An `impl` block (name = the implemented type's last segment).
    Impl,
}

/// One item declaration with its brace-delimited span.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// The declared name (for `impl`, the self type's last segment).
    pub name: String,
    /// 0-based line of the declaring keyword.
    pub line: usize,
    /// 0-based line of the closing brace (== `line` for braceless items).
    pub end_line: usize,
}

/// An enum definition with its variants.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// 0-based line of the `enum` keyword.
    pub line: usize,
    /// 0-based line of the closing brace.
    pub end_line: usize,
    /// Variant names with their 0-based declaration lines.
    pub variants: Vec<(String, usize)>,
    /// Whether the definition sits in test code.
    pub in_test: bool,
}

/// How a binding classifies for the determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindClass {
    /// Declared type / initializer names `HashMap` or `HashSet`.
    HashOrdered,
    /// Declared type / initializer names an RNG (`SmallRng`, `StdRng`,
    /// `impl Rng`, `dyn RngCore`, …).
    Rng,
}

/// A named binding (local, field or parameter) of interest to the rules.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The bound name.
    pub name: String,
    /// 0-based declaration line.
    pub line: usize,
    /// The classification that made the binding interesting.
    pub class: BindClass,
}

/// A string literal with its call-site context.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 0-based line of the opening quote.
    pub line: usize,
    /// The literal's text (escape sequences left as written).
    pub text: String,
    /// The identifier immediately before the enclosing call's `(`, when
    /// the literal is a direct argument: `counter("x")` → `counter`.
    pub callee: Option<String>,
    /// Whether the literal sits in test code.
    pub in_test: bool,
}

/// The line span of one `.spawn(...)` call's argument list.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 0-based line of the `.spawn(` token.
    pub start_line: usize,
    /// 0-based line where the argument parens close.
    pub end_line: usize,
}

/// The structural model of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Item declarations, in source order.
    pub items: Vec<Item>,
    /// Enum definitions, in source order.
    pub enums: Vec<EnumDef>,
    /// Hash-collection / RNG bindings, in source order.
    pub bindings: Vec<Binding>,
    /// String literals, in source order.
    pub strings: Vec<StrLit>,
    /// `.spawn(...)` call spans, in source order.
    pub spawns: Vec<SpawnSite>,
}

/// Is `c` part of an identifier?
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier ending at byte offset `end` of `s` (exclusive), if any.
fn ident_ending_at(s: &str, end: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end || (bytes[start] as char).is_ascii_digit() {
        return None;
    }
    Some(&s[start..end])
}

/// The identifier starting at byte offset `start` of `s`, if any.
fn ident_starting_at(s: &str, start: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    if start >= bytes.len()
        || !is_ident(bytes[start] as char)
        || (bytes[start] as char).is_ascii_digit()
    {
        return None;
    }
    let mut end = start;
    while end < bytes.len() && is_ident(bytes[end] as char) {
        end += 1;
    }
    Some(&s[start..end])
}

/// Does the type-or-initializer text classify a binding?
fn classify(text: &str) -> Option<BindClass> {
    if (text.contains("HashMap") || text.contains("HashSet")) && !text.contains("BTree") {
        return Some(BindClass::HashOrdered);
    }
    if text.contains("SmallRng")
        || text.contains("StdRng")
        || text.contains("RngCore")
        || text.contains("impl Rng")
        || text.contains("dyn Rng")
        || text.contains(".stream(")
        || text.contains(".stream_indexed(")
    {
        return Some(BindClass::Rng);
    }
    None
}

impl ParsedFile {
    /// Parses the structural model out of a scanned file.
    pub fn parse(scanned: &ScannedFile) -> Self {
        let code: Vec<&str> = scanned.lines.iter().map(|l| l.code.as_str()).collect();
        ParsedFile {
            items: parse_items(&code),
            enums: parse_enums(&code, scanned),
            bindings: parse_bindings(&code),
            strings: parse_strings(scanned),
            spawns: parse_spawns(&code),
        }
    }

    /// The hash-collection binding names declared anywhere in the file.
    pub fn hash_names(&self) -> Vec<&str> {
        self.bindings
            .iter()
            .filter(|b| b.class == BindClass::HashOrdered)
            .map(|b| b.name.as_str())
            .collect()
    }

    /// The RNG bindings declared anywhere in the file.
    pub fn rng_bindings(&self) -> Vec<&Binding> {
        self.bindings
            .iter()
            .filter(|b| b.class == BindClass::Rng)
            .collect()
    }
}

/// Running brace depth at the *start* of each line.
fn depth_at_line_start(code: &[&str]) -> Vec<i64> {
    let mut out = Vec::with_capacity(code.len());
    let mut depth = 0i64;
    for line in code {
        out.push(depth);
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    out
}

/// Finds the 0-based line where the brace opened on `open_line` (at
/// running depth `open_depth` *after* the opening brace) closes.
fn find_close_line(code: &[&str], open_line: usize, mut depth: i64) -> usize {
    // `depth` is the depth *after* consuming the open brace; walk forward
    // until it returns to depth-1.
    let target = depth - 1;
    for (i, line) in code.iter().enumerate().skip(open_line) {
        let mut chars = line.chars();
        if i == open_line {
            // Skip up to and including the first '{' on the open line.
            let mut seen_open = false;
            for c in chars.by_ref() {
                match c {
                    '{' if !seen_open => seen_open = true,
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == target {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }
        for c in chars {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == target {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Extracts item declarations (keyword-at-clause heuristics).
fn parse_items(code: &[&str]) -> Vec<Item> {
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        for (kw, kind) in [
            ("fn ", ItemKind::Fn),
            ("struct ", ItemKind::Struct),
            ("enum ", ItemKind::Enum),
            ("trait ", ItemKind::Trait),
            ("mod ", ItemKind::Mod),
            ("impl ", ItemKind::Impl),
        ] {
            let Some(pos) = find_keyword(line, kw.trim_end()) else {
                continue;
            };
            let name = match kind {
                ItemKind::Impl => impl_self_type(&line[pos + kw.len() - 1..]),
                _ => ident_starting_at(line, skip_ws(line, pos + kw.len() - 1)).map(str::to_string),
            };
            let Some(name) = name else { continue };
            let end_line = item_end(code, i);
            out.push(Item {
                kind,
                name,
                line: i,
                end_line,
            });
        }
    }
    out
}

/// Byte offset of the first non-space char at or after `from`.
fn skip_ws(line: &str, from: usize) -> usize {
    let bytes = line.as_bytes();
    let mut i = from;
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Finds `kw` as a standalone word in `line`, returning the offset just
/// past it (the space separator's position + 1 handled by caller).
fn find_keyword(line: &str, kw: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find(kw) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident(line.as_bytes()[pos - 1] as char);
        let after = pos + kw.len();
        let after_ok = line
            .as_bytes()
            .get(after)
            .is_none_or(|&b| !is_ident(b as char));
        if before_ok && after_ok {
            return Some(pos + 1);
        }
        from = pos + kw.len();
    }
    None
}

/// The self type's last path segment of an `impl` clause:
/// `impl<T> Foo for Bar<T> {` → `Bar`; `impl Baz {` → `Baz`.
fn impl_self_type(clause: &str) -> Option<String> {
    let clause = clause.split('{').next().unwrap_or(clause);
    let subject = match clause.find(" for ") {
        Some(pos) => &clause[pos + 5..],
        None => {
            // Skip a generic parameter list directly after `impl`.
            let c = clause.trim_start();
            if let Some(rest) = c.strip_prefix('<') {
                let mut depth = 1;
                let mut idx = 0;
                for (j, ch) in rest.char_indices() {
                    match ch {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                idx = j + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                &rest[idx..]
            } else {
                c
            }
        }
    };
    subject
        .split(['<', ' '])
        .find(|s| !s.is_empty())?
        .rsplit("::")
        .next()
        .map(|s| s.trim_end_matches(';').to_string())
        .filter(|s| {
            !s.is_empty()
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
}

/// End line of the item declared on `decl_line`: the matching close brace
/// of the first `{` at or after the declaration, or the `;` line for
/// braceless items.
fn item_end(code: &[&str], decl_line: usize) -> usize {
    let depths = depth_at_line_start(code);
    for (i, line) in code.iter().enumerate().skip(decl_line) {
        // A `;` before any `{` ends a braceless item (fn decl in trait,
        // `struct Unit;`, `use ...;`).
        let brace = line.find('{');
        let semi = line.find(';');
        match (brace, semi) {
            (None, Some(_)) => return i,
            (Some(b), Some(s)) if s < b => return i,
            (Some(b), _) => {
                // Depth after consuming everything before + the brace.
                let mut depth = depths[i];
                for c in line[..=b].chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                return find_close_line(code, i, depth);
            }
            (None, None) => continue,
        }
    }
    decl_line
}

/// Extracts enum definitions with variant names.
fn parse_enums(code: &[&str], scanned: &ScannedFile) -> Vec<EnumDef> {
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(pos) = find_keyword(line, "enum") else {
            continue;
        };
        let Some(name) = ident_starting_at(line, skip_ws(line, pos + "enum".len())) else {
            continue;
        };
        let end_line = item_end(code, i);
        let mut variants = Vec::new();
        // Variant entries sit at depth base+1 inside the enum braces. An
        // entry starts after `{` or after a `,` at that depth; the first
        // identifier of an entry (skipping attribute lines) is the name.
        let mut depth = 0i64; // relative brace depth inside the enum body
        let mut paren = 0i64; // paren depth (tuple-variant payloads)
        let mut entered = false;
        let mut at_entry_start = false;
        for (j, body_line) in code.iter().enumerate().take(end_line + 1).skip(i) {
            let mut chars = body_line.char_indices().peekable();
            while let Some((col, c)) = chars.next() {
                match c {
                    '{' => {
                        depth += 1;
                        if !entered && depth == 1 {
                            entered = true;
                            at_entry_start = true;
                        }
                    }
                    '}' => depth -= 1,
                    '(' => paren += 1,
                    ')' => paren -= 1,
                    ',' if entered && depth == 1 && paren == 0 => at_entry_start = true,
                    '#' if entered && depth == 1 => {
                        // Attribute on a variant: skip the line.
                        break;
                    }
                    _ if entered
                        && depth == 1
                        && paren == 0
                        && at_entry_start
                        && is_ident(c)
                        && !c.is_ascii_digit() =>
                    {
                        if let Some(ident) = ident_starting_at(body_line, col) {
                            variants.push((ident.to_string(), j));
                            at_entry_start = false;
                            // Skip past the identifier.
                            while let Some(&(c2, ch2)) = chars.peek() {
                                if c2 < col + ident.len() && is_ident(ch2) {
                                    chars.next();
                                } else {
                                    break;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let in_test = scanned.lines.get(i).map(|l| l.in_test).unwrap_or(false);
        out.push(EnumDef {
            name: name.to_string(),
            line: i,
            end_line,
            variants,
            in_test,
        });
    }
    out
}

/// Extracts classified bindings: `let` locals, struct fields and `fn`
/// parameters whose declared type or initializer text matches a
/// collection/RNG class. Uniform line-level heuristic: any
/// `name : <Type>` or `let [mut] name [: T] = <init>` clause.
fn parse_bindings(code: &[&str]) -> Vec<Binding> {
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        // `let [mut] name` bindings: classify on the rest of the
        // statement (type annotation and/or initializer), which for
        // multi-line statements continues onto following lines.
        if let Some(pos) = find_keyword(line, "let") {
            let mut at = skip_ws(line, pos + "let".len());
            if let Some("mut") = ident_starting_at(line, at) {
                at = skip_ws(line, at + 3);
            }
            if let Some(name) = ident_starting_at(line, at) {
                let mut text = line[at + name.len()..].to_string();
                let mut j = i;
                while !text.contains(';') && j + 1 < code.len() && j < i + 3 {
                    j += 1;
                    text.push_str(code[j]);
                }
                if let Some(class) = classify(&text) {
                    out.push(Binding {
                        name: name.to_string(),
                        line: i,
                        class,
                    });
                }
            }
        }
        // `name : Type` clauses (fields and params). Scan every `:` that
        // is not part of `::` and classify the text up to the clause end.
        let bytes = line.as_bytes();
        for (col, &b) in bytes.iter().enumerate() {
            if b != b':' {
                continue;
            }
            if col + 1 < bytes.len() && bytes[col + 1] == b':' {
                continue;
            }
            if col > 0 && bytes[col - 1] == b':' {
                continue;
            }
            let Some(name) = ident_ending_at(line, rtrim_end(line, col)) else {
                continue;
            };
            if name == "let" || name == "mut" || name == "ref" {
                continue;
            }
            // The clause: up to a top-level `,`, `)`, `;` or line end.
            let mut depth = 0i32;
            let mut end = bytes.len();
            for (k, &c) in bytes.iter().enumerate().skip(col + 1) {
                match c as char {
                    '<' | '(' | '[' => depth += 1,
                    '>' | ']' => depth -= 1,
                    ')' if depth > 0 => depth -= 1,
                    ')' | ';' if depth <= 0 => {
                        end = k;
                        break;
                    }
                    ',' if depth <= 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(class) = classify(&line[col + 1..end]) {
                // `let` clauses were already handled above; skip them so
                // a `let x: HashMap<..> = ..` line does not double-count.
                if find_keyword(line, "let").is_some_and(|p| p < col) {
                    continue;
                }
                out.push(Binding {
                    name: name.to_string(),
                    line: i,
                    class,
                });
            }
        }
    }
    out
}

/// Byte offset just past the last non-space char strictly before `end`.
fn rtrim_end(line: &str, end: usize) -> usize {
    let bytes = line.as_bytes();
    let mut i = end;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    i
}

/// Extracts string literals with their call-site callee. Works off the
/// raw lines (contents) guided by the blanked code lines (structure):
/// a literal starts where the code copy has a `"` and takes its text
/// from the raw line at the same columns.
fn parse_strings(scanned: &ScannedFile) -> Vec<StrLit> {
    let mut out = Vec::new();
    for (i, scan) in scanned.lines.iter().enumerate() {
        let code = scan.code.as_bytes();
        let Some(raw) = scanned.raw_lines.get(i) else {
            continue;
        };
        let raw_bytes = raw.as_bytes();
        let mut col = 0;
        while col < code.len() {
            if code[col] != b'"' {
                col += 1;
                continue;
            }
            // Find the closing quote on the same line in the code copy.
            let mut close = None;
            for (k, &b) in code.iter().enumerate().skip(col + 1) {
                if b == b'"' {
                    close = Some(k);
                    break;
                }
            }
            let Some(close) = close else {
                break; // multi-line literal: skip (never a catalog name)
            };
            let text: String = raw_bytes
                .get(col + 1..close)
                .map(|s| String::from_utf8_lossy(s).into_owned())
                .unwrap_or_default();
            // Callee: `ident(` directly before the quote (allowing
            // whitespace), or `ident(&` for by-ref arguments.
            let mut p = rtrim_end(&scan.code, col);
            if p > 0 && code[p - 1] == b'&' {
                p = rtrim_end(&scan.code, p - 1);
            }
            let callee = if p > 0 && code[p - 1] == b'(' {
                ident_ending_at(&scan.code, rtrim_end(&scan.code, p - 1)).map(str::to_string)
            } else {
                None
            };
            out.push(StrLit {
                line: i,
                text,
                callee,
                in_test: scan.in_test,
            });
            col = close + 1;
        }
    }
    out
}

/// Extracts `.spawn(...)` argument spans.
fn parse_spawns(code: &[&str]) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(pos) = line.find(".spawn(") else {
            continue;
        };
        // Walk until the paren opened by `.spawn(` closes.
        let mut depth = 0i32;
        let mut end_line = i;
        'outer: for (j, l) in code.iter().enumerate().skip(i) {
            let start_col = if j == i { pos + ".spawn(".len() - 1 } else { 0 };
            for c in l[start_col.min(l.len())..].chars() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = j;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end_line = j;
        }
        out.push(SpawnSite {
            start_line: i,
            end_line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&ScannedFile::new("crates/core/src/x.rs", src))
    }

    #[test]
    fn items_and_spans() {
        let src = "pub fn f() {\n    body();\n}\n\npub struct S {\n    x: u32,\n}\n\nimpl S {\n    fn m(&self) {}\n}\n";
        let p = parse(src);
        let f = p.items.iter().find(|i| i.name == "f").expect("fn f");
        assert_eq!((f.kind, f.line, f.end_line), (ItemKind::Fn, 0, 2));
        let s = p
            .items
            .iter()
            .find(|i| i.name == "S" && i.kind == ItemKind::Struct)
            .expect("struct S");
        assert_eq!((s.line, s.end_line), (4, 6));
        let im = p
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl)
            .expect("impl S");
        assert_eq!((im.name.as_str(), im.line, im.end_line), ("S", 8, 10));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let p = parse("impl<T: Clone> Observer for TeeObserver<T> {\n}\n");
        assert_eq!(p.items[0].name, "TeeObserver");
    }

    #[test]
    fn enum_variants_parsed_with_payloads() {
        let src = "pub enum Kind {\n    Plain,\n    Tuple(u32, f64),\n    Struct {\n        field: u64,\n    },\n    #[allow(dead_code)]\n    Attributed,\n}\n";
        let p = parse(src);
        assert_eq!(p.enums.len(), 1);
        let e = &p.enums[0];
        assert_eq!(e.name, "Kind");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Plain", "Tuple", "Struct", "Attributed"]);
        // Struct-variant fields and tuple payload types are not variants.
        assert_eq!(e.variants[2].1, 3);
    }

    #[test]
    fn bindings_classified_from_type_and_initializer() {
        let src = "struct S {\n    index: HashMap<u64, usize>,\n    sorted: BTreeMap<u64, usize>,\n}\nfn f(rng: &mut SmallRng) {\n    let mut seen = std::collections::HashSet::new();\n    let stream = streams.stream(\"arrivals\");\n    let n: usize = seen.len();\n}\n";
        let p = parse(src);
        let hash: Vec<&str> = p.hash_names();
        assert!(hash.contains(&"index"), "{hash:?}");
        assert!(hash.contains(&"seen"), "{hash:?}");
        assert!(!hash.contains(&"sorted"), "BTreeMap is ordered: {hash:?}");
        assert!(!hash.contains(&"n"));
        let rngs: Vec<&str> = p.rng_bindings().iter().map(|b| b.name.as_str()).collect();
        assert!(rngs.contains(&"rng"), "{rngs:?}");
        assert!(rngs.contains(&"stream"), "{rngs:?}");
    }

    #[test]
    fn string_literals_carry_callee() {
        let src = "fn f() {\n    registry.counter(\"matcher.cycles\");\n    let s = \"free-standing\";\n    incr(&\"by.ref\");\n}\n";
        let p = parse(src);
        assert_eq!(p.strings.len(), 3);
        assert_eq!(p.strings[0].text, "matcher.cycles");
        assert_eq!(p.strings[0].callee.as_deref(), Some("counter"));
        assert_eq!(p.strings[1].callee, None);
        assert_eq!(p.strings[2].text, "by.ref");
        assert_eq!(p.strings[2].callee.as_deref(), Some("incr"));
    }

    #[test]
    fn spawn_spans_cover_closures() {
        let src = "fn f() {\n    scope.spawn(move || {\n        work();\n        more();\n    });\n    after();\n}\n";
        let p = parse(src);
        assert_eq!(p.spawns.len(), 1);
        assert_eq!(p.spawns[0].start_line, 1);
        assert_eq!(p.spawns[0].end_line, 4);
    }
}
