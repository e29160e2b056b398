//! The declarative sweep manifest.
//!
//! A manifest is a tiny hand-rolled TOML subset (section headers plus
//! `key = value` lines, no serde) with exactly two sections:
//!
//! ```toml
//! [sweep]
//! name = "quick"              # sweep name (required)
//! seed = 42                   # base seed (default 42)
//! suites = ["scenario"]       # experiment suites to run (required)
//! tasks = 150                 # any other scalar becomes a shared knob
//!
//! [axes]
//! pool = [40, 80]             # each axis: name = [value, ...]
//! matcher = ["react", "greedy"]
//! faults = ["none", "chaos(0.5)"]
//! ```
//!
//! Every combination of axis values becomes one
//! [`RunSpec`](crate::spec::RunSpec) per suite. The **first value of an
//! axis is its default**: a run's seed is derived from the axis
//! components where it *differs* from the default, so appending values
//! to an axis — or adding a whole new axis — never reseeds the runs that
//! already existed (see [`crate::spec`]).

use std::fmt;

use react_metrics::fnv1a64;

/// One scalar manifest value.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestValue {
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
}

impl ManifestValue {
    /// Canonical text form (round-trips through the parser and keys the
    /// per-run seed derivation, so it must be stable).
    pub fn canonical(&self) -> String {
        match self {
            ManifestValue::Int(i) => i.to_string(),
            ManifestValue::Float(x) => format!("{x}"),
            ManifestValue::Str(s) => s.clone(),
            ManifestValue::Bool(b) => b.to_string(),
        }
    }

    /// The value as a string, when textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ManifestValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as `i64`, when integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ManifestValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ManifestValue::Int(i) => Some(*i as f64),
            ManifestValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

impl fmt::Display for ManifestValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// A parse problem with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line in the manifest text (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// A parsed sweep manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Sweep name (artifact file stem).
    pub name: String,
    /// Base seed every per-run seed is derived from.
    pub seed: u64,
    /// Experiment suites the axes are swept through, in declaration
    /// order.
    pub suites: Vec<String>,
    /// Shared scalar knobs from `[sweep]` (everything that is not
    /// `name` / `seed` / `suites`), in declaration order.
    pub knobs: Vec<(String, ManifestValue)>,
    /// The axes, in declaration order. Each axis has at least one value;
    /// the first value is the axis default for seed derivation.
    pub axes: Vec<(String, Vec<ManifestValue>)>,
    /// FNV-1a 64 hash of the manifest source text — the provenance
    /// fingerprint stamped on every artifact of the sweep.
    pub hash: u64,
}

impl Manifest {
    /// Parses manifest text.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        #[derive(PartialEq, Clone, Copy)]
        enum Section {
            None,
            Sweep,
            Axes,
        }
        let mut section = Section::None;
        let mut name: Option<String> = None;
        let mut seed: u64 = 42;
        let mut suites: Vec<String> = Vec::new();
        let mut knobs: Vec<(String, ManifestValue)> = Vec::new();
        let mut axes: Vec<(String, Vec<ManifestValue>)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = match header.trim() {
                    "sweep" => Section::Sweep,
                    "axes" => Section::Axes,
                    other => {
                        return Err(err(
                            lineno,
                            format!("unknown section [{other}] (expected [sweep] or [axes])"),
                        ))
                    }
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() {
                return Err(err(lineno, "empty key"));
            }
            let value = value.trim();
            match section {
                Section::None => {
                    return Err(err(lineno, "entry before any [sweep] / [axes] section"))
                }
                Section::Sweep => match key {
                    "name" => {
                        name = Some(
                            parse_scalar(lineno, value)?
                                .as_str()
                                .ok_or_else(|| err(lineno, "name must be a quoted string"))?
                                .to_string(),
                        );
                    }
                    "seed" => {
                        let v = parse_scalar(lineno, value)?
                            .as_i64()
                            .ok_or_else(|| err(lineno, "seed must be an integer"))?;
                        seed = u64::try_from(v)
                            .map_err(|_| err(lineno, "seed must be non-negative"))?;
                    }
                    "suites" => {
                        for v in parse_list(lineno, value)? {
                            let s = v
                                .as_str()
                                .ok_or_else(|| err(lineno, "suites must be quoted strings"))?
                                .to_string();
                            if suites.contains(&s) {
                                return Err(err(lineno, format!("duplicate suite \"{s}\"")));
                            }
                            suites.push(s);
                        }
                    }
                    _ => {
                        if knobs.iter().any(|(k, _)| k == key) {
                            return Err(err(lineno, format!("duplicate knob '{key}'")));
                        }
                        knobs.push((key.to_string(), parse_scalar(lineno, value)?));
                    }
                },
                Section::Axes => {
                    if axes.iter().any(|(k, _)| k == key) {
                        return Err(err(lineno, format!("duplicate axis '{key}'")));
                    }
                    let values = if value.starts_with('[') {
                        parse_list(lineno, value)?
                    } else {
                        vec![parse_scalar(lineno, value)?]
                    };
                    if values.is_empty() {
                        return Err(err(lineno, format!("axis '{key}' has no values")));
                    }
                    let mut seen: Vec<String> = Vec::new();
                    for v in &values {
                        let c = v.canonical();
                        if seen.contains(&c) {
                            return Err(err(lineno, format!("axis '{key}' repeats value {c}")));
                        }
                        seen.push(c);
                    }
                    axes.push((key.to_string(), values));
                }
            }
        }

        let name = name.ok_or_else(|| err(0, "missing [sweep] name"))?;
        if suites.is_empty() {
            return Err(err(
                0,
                "missing [sweep] suites (e.g. suites = [\"scenario\"])",
            ));
        }
        Ok(Manifest {
            name,
            seed,
            suites,
            knobs,
            axes,
            hash: fnv1a64(text.as_bytes()),
        })
    }

    /// Number of permutations the axes expand to (per suite).
    pub fn permutations(&self) -> usize {
        self.axes.iter().map(|(_, vs)| vs.len()).product()
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one scalar: quoted string, bool, int or float.
fn parse_scalar(lineno: usize, s: &str) -> Result<ManifestValue, ManifestError> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, format!("unterminated string {s}")))?;
        if body.contains('"') {
            return Err(err(lineno, "embedded quotes are not supported"));
        }
        return Ok(ManifestValue::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(ManifestValue::Bool(true)),
        "false" => return Ok(ManifestValue::Bool(false)),
        "" => return Err(err(lineno, "empty value")),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(ManifestValue::Int(i));
    }
    if let Ok(x) = s.parse::<f64>() {
        if x.is_finite() {
            return Ok(ManifestValue::Float(x));
        }
    }
    Err(err(
        lineno,
        format!("'{s}' is not a string, bool, integer or finite float"),
    ))
}

/// Parses a `[v1, v2, ...]` list of scalars (no nesting).
fn parse_list(lineno: usize, s: &str) -> Result<Vec<ManifestValue>, ManifestError> {
    let s = s.trim();
    let body = s
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| err(lineno, format!("expected a [..] list, got '{s}'")))?;
    let mut out = Vec::new();
    for part in split_list(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_scalar(lineno, part)?);
    }
    Ok(out)
}

/// Splits on commas outside quoted strings.
fn split_list(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a comment
[sweep]
name = "quick"     # trailing comment
seed = 7
suites = ["scenario"]
tasks = 150
arrival_rate = 2.5

[axes]
pool = [40, 80]
matcher = ["react", "greedy", "traditional"]
faults = ["none", "chaos(0.5)"]
flag = true
"#;

    #[test]
    fn parses_sections_knobs_and_axes() {
        let m = Manifest::parse(SAMPLE).expect("parse");
        assert_eq!(m.name, "quick");
        assert_eq!(m.seed, 7);
        assert_eq!(m.suites, vec!["scenario"]);
        let knob = |name: &str| m.knobs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(knob("tasks"), Some(&ManifestValue::Int(150)));
        assert_eq!(knob("arrival_rate"), Some(&ManifestValue::Float(2.5)));
        assert_eq!(m.axes.len(), 4);
        assert_eq!(m.axes[0].0, "pool");
        assert_eq!(
            m.axes[0].1,
            vec![ManifestValue::Int(40), ManifestValue::Int(80)]
        );
        assert_eq!(m.axes[3].1, vec![ManifestValue::Bool(true)]);
        assert_eq!(m.permutations(), 2 * 3 * 2);
    }

    #[test]
    fn hash_tracks_source_text() {
        let a = Manifest::parse(SAMPLE).unwrap();
        let b = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(a.hash, b.hash);
        let c = Manifest::parse(&SAMPLE.replace("seed = 7", "seed = 8")).unwrap();
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn comments_respect_strings() {
        let m = Manifest::parse("[sweep]\nname = \"a#b\"\nsuites = [\"scenario\"]\n").unwrap();
        assert_eq!(m.name, "a#b");
    }

    #[test]
    fn rejects_malformed_manifests() {
        for (bad, why) in [
            ("name = \"x\"\n", "entry before section"),
            ("[sweep]\nsuites = [\"s\"]\n", "missing name"),
            ("[sweep]\nname = \"x\"\n", "missing suites"),
            (
                "[sweep]\nname = unquoted\nsuites = [\"s\"]\n",
                "unquoted name",
            ),
            (
                "[sweep]\nname = \"x\"\nseed = -1\nsuites = [\"s\"]\n",
                "negative seed",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\"]\n[bogus]\n",
                "unknown section",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\"]\n[axes]\npool = []\n",
                "empty axis",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\"]\n[axes]\npool = [1, 1]\n",
                "repeated value",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\"]\n[axes]\npool = [1]\npool = [2]\n",
                "duplicate axis",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\", \"s\"]\n",
                "duplicate suite",
            ),
            (
                "[sweep]\nname = \"x\"\nsuites = [\"s\"]\nknob = nan\n",
                "non-finite float",
            ),
        ] {
            assert!(Manifest::parse(bad).is_err(), "{why}: {bad:?}");
        }
    }

    #[test]
    fn scalar_axis_becomes_single_value_list() {
        let m = Manifest::parse("[sweep]\nname = \"x\"\nsuites = [\"s\"]\n[axes]\npool = 40\n")
            .unwrap();
        assert_eq!(m.axes[0].1.len(), 1);
        assert_eq!(m.permutations(), 1);
    }

    #[test]
    fn error_carries_line_numbers() {
        let e = Manifest::parse("[sweep]\nname = \"x\"\nbad value\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }
}
