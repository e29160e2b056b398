//! Reproducible named RNG streams.
//!
//! Experiments draw randomness for several independent purposes (worker
//! profiles, arrival times, service times, matcher flips…). Deriving each
//! purpose's generator from `(master_seed, label)` with SplitMix64 means:
//!
//! * the whole experiment is reproducible from a single seed, and
//! * adding draws to one component never perturbs another component's
//!   stream (no accidental coupling through a shared generator).

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Factory of independent, labelled RNG streams from one master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master_seed: u64,
}

impl RngStreams {
    /// Creates a factory for the given master seed.
    pub fn new(master_seed: u64) -> Self {
        RngStreams { master_seed }
    }

    /// A generator for the stream named by `label`. The same
    /// `(seed, label)` pair always produces the same stream.
    pub fn stream(&self, label: &str) -> SmallRng {
        let mut h = self.master_seed;
        for b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        SmallRng::seed_from_u64(splitmix64(h))
    }

    /// A generator for the `index`-th member of a family of streams
    /// (e.g. one stream per worker).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SmallRng {
        let mut h = self.master_seed;
        for b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        // `index + 1` keeps index 0 in a different namespace from the
        // plain `stream(label)` generator (whose final mix uses `h` as-is).
        let salted = h ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SmallRng::seed_from_u64(splitmix64(salted))
    }
}

/// SplitMix64 mixing step — a tiny, well-distributed u64→u64 hash. The
/// named streams here, the per-run seeds of sweep manifests and the
/// fault schedule's per-event decisions go through it (the cluster's
/// per-shard seeds use their own truncated mix).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draws(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn same_label_same_stream() {
        let f = RngStreams::new(42);
        let a = draws(&mut f.stream("arrivals"), 16);
        let b = draws(&mut f.stream("arrivals"), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngStreams::new(42);
        let a = draws(&mut f.stream("arrivals"), 16);
        let b = draws(&mut f.stream("service"), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = draws(&mut RngStreams::new(1).stream("x"), 16);
        let b = draws(&mut RngStreams::new(2).stream("x"), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_distinct_and_stable() {
        let f = RngStreams::new(7);
        let w0 = draws(&mut f.stream_indexed("worker", 0), 8);
        let w1 = draws(&mut f.stream_indexed("worker", 1), 8);
        let w0_again = draws(&mut f.stream_indexed("worker", 0), 8);
        assert_ne!(w0, w1);
        assert_eq!(w0, w0_again);
    }

    #[test]
    fn indexed_and_plain_streams_are_independent_namespaces() {
        let f = RngStreams::new(7);
        let plain = draws(&mut f.stream("worker"), 8);
        let indexed = draws(&mut f.stream_indexed("worker", 0), 8);
        assert_ne!(plain, indexed);
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should change roughly half the output
        // bits on average. A loose sanity bound guards the constant.
        let mut total = 0u32;
        for i in 0..64 {
            total += (splitmix64(0) ^ splitmix64(1u64 << i)).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((20.0..44.0).contains(&avg), "avalanche average {avg}");
    }
}
