//! Seeded arrival traces.
//!
//! A trace is generated **before** the run starts, so the offered load
//! is a property of the seed alone, whatever the server answers. Whether
//! it is also *offered* on schedule depends on the driver: the
//! benchmark's wire generator sends each entry at its instant without
//! waiting on answers (open loop), while [`crate::replay`] waits for
//! each answer before its connection's next send and falls behind under
//! overload. The canonical text rendering ([`trace_text`]) is what the
//! determinism tests hash — same seed, same shape, byte-identical trace.

use react_crowd::TaskGenerator;
use react_geo::BoundingBox;
use react_metrics::fnv1a64;
use react_sim::RngStreams;

/// Arrival-process shape for a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Homogeneous Poisson arrivals at the configured rate.
    Poisson,
    /// Poisson base load plus synchronized bursts: every `period` crowd
    /// seconds, `size` extra tasks arrive at the same instant.
    Bursty {
        /// Crowd seconds between bursts.
        period: f64,
        /// Tasks per burst.
        size: usize,
    },
}

/// One pre-generated arrival: when it is offered and the submission
/// body's fields. Ids are assigned by the door, not the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Offer instant, crowd seconds from run start.
    pub at: f64,
    /// Soft deadline, crowd seconds.
    pub deadline: f64,
    /// Reward, dollars.
    pub reward: f64,
    /// Task latitude.
    pub lat: f64,
    /// Task longitude.
    pub lon: f64,
    /// Task category.
    pub category: u32,
}

/// The region every trace draws task locations from (the paper's
/// Athens deployment area, as elsewhere in the workspace).
fn trace_region() -> BoundingBox {
    BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds")
}

/// Generates `n` arrivals of the given shape at `rate` tasks per crowd
/// second, deterministically from `seed`.
pub fn build_trace(shape: Shape, rate: f64, n: usize, seed: u64) -> Vec<TraceEntry> {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("load.trace");
    let region = trace_region();
    let mut generator = TaskGenerator::new(rate, region);
    let mut entries: Vec<TraceEntry> = Vec::with_capacity(n);
    match shape {
        Shape::Poisson => {
            while entries.len() < n {
                let (at, task) = generator.next(&mut rng);
                entries.push(entry_from(at, &task));
            }
        }
        Shape::Bursty { period, size } => {
            let mut burst_rng = streams.stream("load.burst");
            let mut burst_gen = TaskGenerator::new(rate, region);
            let mut next_burst = period;
            while entries.len() < n {
                let (at, task) = generator.next(&mut rng);
                while next_burst <= at && entries.len() < n {
                    for _ in 0..size {
                        if entries.len() >= n {
                            break;
                        }
                        // The burst generator's own arrival clock is
                        // discarded: all burst tasks land at the burst
                        // instant.
                        let (_, burst_task) = burst_gen.next(&mut burst_rng);
                        entries.push(entry_from(next_burst, &burst_task));
                    }
                    next_burst += period;
                }
                if entries.len() < n {
                    entries.push(entry_from(at, &task));
                }
            }
            entries.sort_by(|a, b| a.at.total_cmp(&b.at));
        }
    }
    entries
}

fn entry_from(at: f64, task: &react_core::Task) -> TraceEntry {
    TraceEntry {
        at,
        deadline: task.deadline,
        reward: task.reward,
        lat: task.location.lat(),
        lon: task.location.lon(),
        category: task.category.0,
    }
}

/// Canonical text rendering, one arrival per line — the byte-identity
/// surface for determinism tests and the trace fingerprint.
pub fn trace_text(trace: &[TraceEntry]) -> String {
    let mut out = String::with_capacity(trace.len() * 64);
    for e in trace {
        out.push_str(&format!(
            "{:.6} {:.6} {:.6} {:.6} {:.6} {}\n",
            e.at, e.deadline, e.reward, e.lat, e.lon, e.category
        ));
    }
    out
}

/// FNV-1a 64 fingerprint of the canonical rendering.
pub fn trace_hash(trace: &[TraceEntry]) -> u64 {
    fnv1a64(trace_text(trace).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_sorted_and_sized() {
        let trace = build_trace(Shape::Poisson, 5.0, 200, 42);
        assert_eq!(trace.len(), 200);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(trace
            .iter()
            .all(|e| e.deadline >= 60.0 && e.deadline <= 120.0));
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = build_trace(Shape::Poisson, 5.0, 100, 7);
        let b = build_trace(Shape::Poisson, 5.0, 100, 7);
        let c = build_trace(Shape::Poisson, 5.0, 100, 8);
        assert_eq!(trace_text(&a), trace_text(&b));
        assert_eq!(trace_hash(&a), trace_hash(&b));
        assert_ne!(trace_hash(&a), trace_hash(&c));
    }

    #[test]
    fn bursty_trace_has_synchronized_arrivals() {
        let shape = Shape::Bursty {
            period: 10.0,
            size: 5,
        };
        let trace = build_trace(shape, 2.0, 300, 11);
        assert_eq!(trace.len(), 300);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        // At least one burst instant carries `size` simultaneous tasks.
        let at_burst = trace.iter().filter(|e| e.at == 10.0).count();
        assert!(at_burst >= 5, "burst at t=10 has {at_burst} tasks");
    }
}
