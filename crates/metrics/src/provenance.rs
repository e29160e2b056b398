//! Artifact attribution: every `results/*.csv` and `*.kpi.*` report the
//! suites emit is stamped with the seed, the sweep manifest hash (when
//! the run came from a manifest) and the git revision, so a number on
//! disk can always be traced back to the exact inputs that produced it.
//!
//! Also home of [`write_stamped`], the no-silent-overwrite artifact
//! writer: when a target file exists with *different* content, the old
//! file is preserved as `<name>.prev.<ext>` before the new one lands.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::kpi::json_string;

/// Attribution stamp for a results artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Master seed the run(s) derived their RNG streams from.
    pub seed: u64,
    /// FNV-1a 64 hash of the sweep manifest text, when the run came from
    /// a manifest.
    pub manifest_hash: Option<u64>,
    /// Git revision of the working tree (read from `.git`, no
    /// subprocess), when resolvable.
    pub git_revision: Option<String>,
}

impl Provenance {
    /// A stamp carrying only the seed.
    pub fn new(seed: u64) -> Self {
        Provenance {
            seed,
            manifest_hash: None,
            git_revision: None,
        }
    }

    /// Attaches a manifest hash.
    pub fn with_manifest_hash(mut self, hash: u64) -> Self {
        self.manifest_hash = Some(hash);
        self
    }

    /// Attaches the git revision discovered by walking up from `start`
    /// to the enclosing repository, when one exists.
    pub fn with_git_revision_from(mut self, start: &Path) -> Self {
        self.git_revision = git_revision(start);
        self
    }

    /// `# provenance: ...` comment line (no trailing newline) appended
    /// to CSV artifacts.
    pub fn comment_line(&self) -> String {
        let mut line = format!("# provenance: seed={}", self.seed);
        if let Some(h) = self.manifest_hash {
            line.push_str(&format!(" manifest={h:#018x}"));
        }
        if let Some(rev) = &self.git_revision {
            line.push_str(&format!(" rev={rev}"));
        }
        line
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seed\":{}", self.seed);
        match self.manifest_hash {
            Some(h) => out.push_str(&format!(
                ",\"manifest_hash\":{}",
                json_string(&format!("{h:#018x}"))
            )),
            None => out.push_str(",\"manifest_hash\":null"),
        }
        match &self.git_revision {
            Some(rev) => out.push_str(&format!(",\"git_revision\":{}", json_string(rev))),
            None => out.push_str(",\"git_revision\":null"),
        }
        out.push('}');
        out
    }
}

/// FNV-1a 64-bit hash — the manifest fingerprint. Stable across
/// platforms and sessions; no `DefaultHasher` seeding surprises.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolves the current git revision by walking up from `start` to the
/// first directory containing `.git`, then chasing `HEAD` → ref →
/// `packed-refs`. Returns `None` outside a repository or on any parse
/// failure — attribution is best-effort, never fatal.
pub fn git_revision(start: &Path) -> Option<String> {
    let mut dir = if start.is_dir() {
        start
    } else {
        start.parent()?
    };
    loop {
        let dot_git = dir.join(".git");
        if dot_git.is_dir() {
            return revision_from_git_dir(&dot_git);
        }
        if dot_git.is_file() {
            // Worktree: `.git` is a file `gitdir: <path>`.
            let text = fs::read_to_string(&dot_git).ok()?;
            let gitdir = text.strip_prefix("gitdir:")?.trim();
            return revision_from_git_dir(Path::new(gitdir));
        }
        dir = dir.parent()?;
    }
}

fn revision_from_git_dir(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref:") else {
        // Detached HEAD: the file holds the hash directly.
        return looks_like_hash(head).then(|| head.to_string());
    };
    let reference = reference.trim();
    if let Ok(text) = fs::read_to_string(git_dir.join(reference)) {
        let hash = text.trim();
        if looks_like_hash(hash) {
            return Some(hash.to_string());
        }
    }
    // Ref may only exist packed.
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if line.starts_with('#') || line.starts_with('^') {
            continue;
        }
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == reference && looks_like_hash(hash) {
                return Some(hash.to_string());
            }
        }
    }
    None
}

fn looks_like_hash(s: &str) -> bool {
    s.len() >= 40 && s.chars().all(|c| c.is_ascii_hexdigit())
}

/// What [`write_stamped`] did with the target path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactOutcome {
    /// No file existed; the artifact was created.
    Created,
    /// The existing file already had exactly this content; rewritten in
    /// place (byte-identical, nothing lost).
    Unchanged,
    /// The existing file differed; it was preserved at the given path
    /// before the new artifact was written.
    BackedUp(PathBuf),
}

/// Writes `content` to `path`, never silently destroying a differing
/// prior artifact: an existing file with different bytes is first
/// renamed to `<stem>.prev[.<ext>]` (itself overwritten — one level of
/// history, not an archive).
pub fn write_stamped(path: &Path, content: &str) -> io::Result<ArtifactOutcome> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let outcome = match fs::read_to_string(path) {
        Ok(existing) if existing == content => ArtifactOutcome::Unchanged,
        Ok(_) => {
            let backup = backup_path(path);
            fs::rename(path, &backup)?;
            ArtifactOutcome::BackedUp(backup)
        }
        Err(_) => ArtifactOutcome::Created,
    };
    fs::write(path, content)?;
    Ok(outcome)
}

fn backup_path(path: &Path) -> PathBuf {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let name = match path.extension() {
        Some(ext) => format!("{stem}.prev.{}", ext.to_string_lossy()),
        None => format!("{stem}.prev"),
    };
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"pool = [40]"), fnv1a64(b"pool = [80]"));
    }

    #[test]
    fn comment_line_and_json_shape() {
        let p = Provenance::new(42).with_manifest_hash(0xdead_beef);
        let line = p.comment_line();
        assert!(line.starts_with("# provenance: seed=42"));
        assert!(line.contains("manifest=0x00000000deadbeef"));
        let json = p.to_json();
        assert!(json.starts_with("{\"seed\":42"));
        assert!(json.contains("\"git_revision\":null"));
    }

    #[test]
    fn git_revision_resolves_in_this_repo() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let rev = git_revision(here);
        // This crate lives inside a git checkout in CI and dev alike.
        if let Some(rev) = rev {
            assert!(looks_like_hash(&rev), "bad revision {rev}");
        }
    }

    #[test]
    fn write_stamped_backs_up_differing_artifacts() {
        let dir = std::env::temp_dir().join("react_metrics_provenance_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("out.csv");

        assert_eq!(
            write_stamped(&path, "a\n1\n").unwrap(),
            ArtifactOutcome::Created
        );
        assert_eq!(
            write_stamped(&path, "a\n1\n").unwrap(),
            ArtifactOutcome::Unchanged,
            "byte-identical rewrite must not create a backup"
        );
        let outcome = write_stamped(&path, "a\n2\n").unwrap();
        let backup = dir.join("out.prev.csv");
        assert_eq!(outcome, ArtifactOutcome::BackedUp(backup.clone()));
        assert_eq!(fs::read_to_string(&backup).unwrap(), "a\n1\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "a\n2\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
