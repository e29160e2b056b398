//! Deterministic expansion of a [`Manifest`] into [`RunSpec`]s.
//!
//! ## Seed stability
//!
//! Each run's seed is `SplitMix64`-derived from the sweep's base seed,
//! the suite name and the run's **seed key**: the sorted
//! `axis=value` components where the run *differs from the axis
//! default* (an axis's first declared value). Consequences:
//!
//! * permutation order, axis declaration order and value order don't
//!   affect seeds (the key is sorted and value-addressed);
//! * appending values to an axis adds new runs without reseeding the
//!   existing ones;
//! * adding a whole new axis leaves every pre-existing run (which takes
//!   the new axis's default) with its old seed — the new axis simply
//!   contributes nothing to their keys.
//!
//! The manifest *hash* deliberately does **not** enter seed derivation —
//! it fingerprints artifacts for provenance, while seeds must survive
//! manifest edits that only extend coverage.

use react_metrics::fnv1a64;
use react_sim::splitmix64;

use crate::manifest::{Manifest, ManifestValue};

/// One fully-specified experiment run: the `RunSpec → KpiRow(s)`
/// contract's input.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The suite that executes this spec.
    pub suite: String,
    /// Position in the expanded run list (stable across reruns of the
    /// same manifest).
    pub index: usize,
    /// Human-facing coordinates, axes in declaration order
    /// (`pool=40,matcher=react,...`). Empty for axis-free suites.
    pub label: String,
    /// The sorted, default-elided components that key seed derivation.
    pub seed_key: String,
    /// Axis coordinates followed by shared knobs, in declaration order.
    pub params: Vec<(String, ManifestValue)>,
    /// The run's derived seed.
    pub seed: u64,
    /// Whether the suite should use its reduced "quick" sizes.
    pub quick: bool,
}

impl RunSpec {
    /// Looks up a parameter (axis coordinate or shared knob).
    pub fn get(&self, name: &str) -> Option<&ManifestValue> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// String parameter.
    pub fn str_param(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(ManifestValue::as_str)
    }

    /// Integer parameter as `usize`.
    pub fn usize_param(&self, name: &str) -> Option<usize> {
        self.get(name)
            .and_then(ManifestValue::as_i64)
            .and_then(|v| usize::try_from(v).ok())
    }

    /// Numeric parameter as `f64`.
    pub fn f64_param(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(ManifestValue::as_f64)
    }

    /// A suite's parameter block at this run's size: `quick()` under
    /// `--quick`, the paper-scale default otherwise.
    pub fn sized<T: Default>(&self, quick: fn() -> T) -> T {
        if self.quick {
            quick()
        } else {
            T::default()
        }
    }
}

/// Derives a run seed from `(base, suite, seed_key)`.
pub fn derive_seed(base: u64, suite: &str, seed_key: &str) -> u64 {
    let mut z = base;
    z ^= splitmix64(fnv1a64(suite.as_bytes()));
    z ^= splitmix64(fnv1a64(seed_key.as_bytes()).rotate_left(17));
    splitmix64(z)
}

/// Expands the manifest's axes into one [`RunSpec`] per permutation for
/// `suite`. Permutations enumerate in odometer order: the **last**
/// declared axis varies fastest. With no axes, expands to a single
/// axis-free spec.
pub fn expand(manifest: &Manifest, suite: &str, quick: bool) -> Vec<RunSpec> {
    let axes = &manifest.axes;
    let total: usize = axes.iter().map(|(_, vs)| vs.len()).product();
    let mut specs = Vec::with_capacity(total);
    for perm in 0..total {
        // Decode the odometer: last axis varies fastest.
        let mut coords: Vec<usize> = vec![0; axes.len()];
        let mut rest = perm;
        for (slot, (_, values)) in axes.iter().enumerate().rev() {
            coords[slot] = rest % values.len();
            rest /= values.len();
        }

        let mut label_parts: Vec<String> = Vec::with_capacity(axes.len());
        let mut key_parts: Vec<String> = Vec::new();
        let mut params: Vec<(String, ManifestValue)> = Vec::new();
        for (slot, (axis, values)) in axes.iter().enumerate() {
            let value = &values[coords[slot]];
            label_parts.push(format!("{axis}={}", value.canonical()));
            if coords[slot] != 0 {
                key_parts.push(format!("{axis}={}", value.canonical()));
            }
            params.push((axis.clone(), value.clone()));
        }
        key_parts.sort();
        let seed_key = key_parts.join(",");
        for (knob, value) in &manifest.knobs {
            if !params.iter().any(|(k, _)| k == knob) {
                params.push((knob.clone(), value.clone()));
            }
        }
        specs.push(RunSpec {
            suite: suite.to_string(),
            index: perm,
            label: label_parts.join(","),
            seed: derive_seed(manifest.seed, suite, &seed_key),
            seed_key,
            params,
            quick,
        });
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(text: &str) -> Manifest {
        Manifest::parse(text).expect("manifest")
    }

    const BASE: &str = "[sweep]\nname = \"t\"\nseed = 42\nsuites = [\"scenario\"]\n\
                        tasks = 100\n[axes]\npool = [40, 80]\nmatcher = [\"react\", \"greedy\"]\n";

    #[test]
    fn expansion_is_odometer_ordered() {
        let specs = expand(&manifest(BASE), "scenario", false);
        assert_eq!(specs.len(), 4);
        let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "pool=40,matcher=react",
                "pool=40,matcher=greedy",
                "pool=80,matcher=react",
                "pool=80,matcher=greedy",
            ]
        );
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.usize_param("tasks"), Some(100), "knobs flow into params");
        }
    }

    #[test]
    fn default_coordinates_elide_from_seed_key() {
        let specs = expand(&manifest(BASE), "scenario", false);
        assert_eq!(specs[0].seed_key, "", "all-default run has the empty key");
        assert_eq!(specs[1].seed_key, "matcher=greedy");
        assert_eq!(specs[2].seed_key, "pool=80");
        assert_eq!(specs[3].seed_key, "matcher=greedy,pool=80");
    }

    #[test]
    fn appending_axis_values_preserves_existing_seeds() {
        let before = expand(&manifest(BASE), "scenario", false);
        let extended = BASE.replace("pool = [40, 80]", "pool = [40, 80, 160]");
        let after = expand(&manifest(&extended), "scenario", false);
        assert_eq!(after.len(), 6);
        for b in &before {
            let a = after
                .iter()
                .find(|a| a.label == b.label)
                .expect("existing run survives");
            assert_eq!(a.seed, b.seed, "seed changed for {}", b.label);
        }
    }

    #[test]
    fn adding_a_new_axis_preserves_existing_seeds() {
        let before = expand(&manifest(BASE), "scenario", false);
        let extended = format!("{BASE}faults = [\"none\", \"chaos(0.5)\"]\n");
        let after = expand(&manifest(&extended), "scenario", false);
        assert_eq!(after.len(), 8);
        for b in &before {
            let a = after
                .iter()
                .find(|a| a.label.starts_with(&b.label) && a.label.ends_with("faults=none"))
                .expect("default-faults run survives");
            assert_eq!(a.seed, b.seed, "new axis reseeded {}", b.label);
        }
    }

    #[test]
    fn seeds_are_distinct_across_runs_and_suites() {
        let m = manifest(BASE);
        let specs = expand(&m, "scenario", false);
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), specs.len(), "per-run seeds collide");
        let other = expand(&m, "other-suite", false);
        assert_ne!(
            specs[0].seed, other[0].seed,
            "suite name must enter derivation"
        );
    }

    #[test]
    fn base_seed_shifts_every_run() {
        let m = manifest(BASE);
        let reseeded = manifest(&BASE.replace("seed = 42", "seed = 43"));
        let a = expand(&m, "scenario", false);
        let b = expand(&reseeded, "scenario", false);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed, "base seed ignored for {}", x.label);
        }
    }

    #[test]
    fn axis_free_manifest_expands_to_one_spec() {
        let m = manifest("[sweep]\nname = \"t\"\nsuites = [\"fig34\"]\n");
        let specs = expand(&m, "fig34", true);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].label, "");
        assert!(specs[0].quick);
        assert_eq!(specs[0].seed, derive_seed(42, "fig34", ""));
    }
}
