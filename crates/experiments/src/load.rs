//! The `load` suite: open-loop TCP replay through the live ingest door.
//!
//! Unlike the sim-time suites this one exercises the real wire
//! boundary — `react-load` self-hosts an
//! [`react_runtime::IngestRuntime`](../../runtime), replays a seeded
//! arrival trace over sockets and reports goodput, the on-time
//! fraction, p50/p99/p999 assignment latency and the door shed rate as
//! KPI rows (only the `react-load` binary writes the JSON report).
//!
//! Manifest-driven when axes are given (`shape`, plus the `rate` /
//! `tasks` / `scale` / `workers` knobs); otherwise it expands to its
//! intrinsic two-cell list: one Poisson cell and one bursty cell.
//! Wall-clock suite → `parallel_safe() == false`.

use react_load::{LoadParams, Shape};

use crate::experiment::{ExpandCtx, Experiment, RunOutput};
use crate::spec::{derive_seed, expand, RunSpec};

/// The load suite (see module docs).
pub struct LoadSuite;

/// Resolves one spec's [`LoadParams`] (quick/default base + overrides).
fn build_params(spec: &RunSpec) -> Result<LoadParams, String> {
    let mut params = spec.sized(LoadParams::quick);
    params.seed = spec.seed;
    if let Some(shape) = spec.str_param("shape") {
        params.shape = Shape::parse(shape).ok_or_else(|| format!("unknown shape `{shape}`"))?;
    }
    if let Some(rate) = spec.f64_param("rate") {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!("rate must be positive, got {rate}"));
        }
        params.rate = rate;
    }
    if let Some(tasks) = spec.usize_param("tasks") {
        params.tasks = tasks;
    }
    if let Some(scale) = spec.f64_param("scale") {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("scale must be positive, got {scale}"));
        }
        params.time_scale = scale;
    }
    if let Some(workers) = spec.usize_param("workers") {
        params.n_workers = workers;
    }
    if let Some(queue) = spec.usize_param("queue") {
        params.queue_capacity = queue;
    }
    if let Some(watermark) = spec.usize_param("watermark") {
        params.backlog_watermark = watermark;
    }
    Ok(params)
}

impl Experiment for LoadSuite {
    fn name(&self) -> &'static str {
        "load"
    }

    fn title(&self) -> &'static str {
        "Load — open-loop TCP replay through the ingest door"
    }

    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        let specs = match ctx.manifest {
            Some(manifest) if !manifest.axes.is_empty() => expand(manifest, self.name(), ctx.quick),
            _ => {
                // Intrinsic two-cell list: Poisson, then bursty.
                ["poisson", "burst"]
                    .iter()
                    .enumerate()
                    .map(|(index, shape)| {
                        let seed_key = if index == 0 {
                            String::new()
                        } else {
                            format!("shape={shape}")
                        };
                        RunSpec {
                            suite: self.name().to_string(),
                            index,
                            label: format!("shape={shape}"),
                            seed: if index == 0 {
                                ctx.seed
                            } else {
                                derive_seed(ctx.seed, self.name(), &seed_key)
                            },
                            seed_key,
                            params: vec![(
                                "shape".to_string(),
                                crate::manifest::ManifestValue::Str(shape.to_string()),
                            )],
                            quick: ctx.quick,
                        }
                    })
                    .collect()
            }
        };
        // Validate every cell eagerly — a sweep must fail before its
        // first run, not in the middle of a fan-out.
        for spec in &specs {
            build_params(spec).map_err(|e| format!("run '{}': {e}", spec.label))?;
        }
        Ok(specs)
    }

    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = build_params(spec)?;
        let report = react_load::run(&params)
            .map_err(|e| format!("load run '{}' failed: {e}", spec.label))?;
        let report = std::slice::from_ref(&report);
        let text = react_load::render(report);
        if !report[0].conserved {
            return Err(format!(
                "run '{}' violated the conservation identity\n{text}",
                spec.label
            ));
        }
        Ok(RunOutput {
            rows: react_load::kpi_rows(report),
            text,
            ..RunOutput::default()
        })
    }

    fn parallel_safe(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn ctx(seed: u64) -> ExpandCtx<'static> {
        ExpandCtx {
            quick: true,
            seed,
            manifest: None,
        }
    }

    #[test]
    fn intrinsic_expansion_is_poisson_then_burst() {
        let suite = LoadSuite;
        let specs = suite.expand(&ctx(99)).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label, "shape=poisson");
        assert_eq!(specs[1].label, "shape=burst");
        assert_eq!(specs[0].seed, 99, "default cell takes the base seed");
        assert_ne!(specs[1].seed, 99, "burst cell derives its own seed");
        assert!(specs.iter().all(|s| s.quick));
        assert!(!suite.parallel_safe(), "wall-clock suite must be pinned");
    }

    #[test]
    fn manifest_axes_drive_expansion_and_knobs_flow_through() {
        let manifest = Manifest::parse(
            "[sweep]\nname = \"load-test\"\nseed = 7\nsuites = [\"load\"]\n\
             tasks = 500\nscale = 120\n\
             [axes]\nshape = [\"poisson\", \"burst\"]\nrate = [4.0, 9.375]\n",
        )
        .unwrap();
        let suite = LoadSuite;
        let specs = suite
            .expand(&ExpandCtx {
                quick: true,
                seed: manifest.seed,
                manifest: Some(&manifest),
            })
            .unwrap();
        assert_eq!(specs.len(), 4);
        let params = build_params(&specs[0]).unwrap();
        assert_eq!(params.tasks, 500);
        assert!((params.time_scale - 120.0).abs() < 1e-12);
        assert!((params.rate - 4.0).abs() < 1e-12);
        assert_eq!(params.shape, Shape::Poisson);
    }

    #[test]
    fn unknown_shape_fails_at_expand_time() {
        let manifest = Manifest::parse(
            "[sweep]\nname = \"bad\"\nsuites = [\"load\"]\n\
             [axes]\nshape = [\"sawtooth\"]\n",
        )
        .unwrap();
        let suite = LoadSuite;
        let err = suite
            .expand(&ExpandCtx {
                quick: true,
                seed: 1,
                manifest: Some(&manifest),
            })
            .unwrap_err();
        assert!(err.contains("unknown shape"), "{err}");
    }

    #[test]
    fn bad_rate_fails_at_expand_time() {
        let manifest = Manifest::parse(
            "[sweep]\nname = \"bad\"\nsuites = [\"load\"]\n\
             [axes]\nrate = [-2.0]\n",
        )
        .unwrap();
        let suite = LoadSuite;
        let err = suite
            .expand(&ExpandCtx {
                quick: true,
                seed: 1,
                manifest: Some(&manifest),
            })
            .unwrap_err();
        assert!(err.contains("rate must be positive"), "{err}");
    }
}
