//! The reference kernel behind the drift-normalisation rule.
//!
//! FROZEN: changing anything in [`RefKernel::run`] or [`K_REF`] redefines
//! every normalised metric and invalidates all earlier baselines.
//!
//! On the shared 2-core box the *median* wall time of back-to-back
//! repetitions of one bit-identical simulation moves by 20–40 % between
//! sets taken minutes apart, and process CPU time moves with it: the
//! host gets slower and faster (a busy hyperthread sibling), it does not
//! merely preempt, and best-of-N is no steadier than the median. So every
//! CPU-bound timing is bracketed by calls of this fixed kernel and
//! reported in "reference seconds":
//! `raw × K_REF / mean(k_before, k_after)`.
//!
//! The kernel does what the scheduler does, in the scheduler's working
//! set: xorshift-indexed read-modify-write with one `powf` per step
//! (the Eq. (2)/(3) CCDF) and binary-heap traffic (the event queue) over
//! a cache-resident buffer, then ordered-map, hash-map and small-sort
//! work (task and profile tables, row sorting). An 8 MiB buffer was
//! measured too and rejected: a memory-bound kernel barely slows when
//! the simulator slows by a third (correlation with repetition time
//! 0.27–0.56, against 0.60–0.68 for each part used here), so dividing by
//! it left 8–13 % spread between sets where this kernel leaves 2–4 %.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Nominal wall seconds of one [`RefKernel::run`] call: about its median
/// on the box the workloads were calibrated on. One reference second is
/// the work that box does in a second.
pub const K_REF: f64 = 0.125;

const BUF_LEN: usize = 1 << 12; // 32 KiB of f64: stays in L1/L2
const FLOAT_STEPS: usize = 2_400_000;
const TABLE_STEPS: usize = 600_000;
const HEAP_CAP: usize = 1024;
const TREE_CAP: usize = 512;

/// The fixed-work kernel and its buffers.
pub struct RefKernel {
    buf: Vec<f64>,
    heap: BinaryHeap<u64>,
    sorted: Vec<f64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl RefKernel {
    /// Allocates the buffers and runs once so that they are warm.
    pub fn new() -> Self {
        let mut kernel = RefKernel {
            buf: vec![1.5; BUF_LEN],
            heap: BinaryHeap::with_capacity(HEAP_CAP + 1),
            sorted: Vec::with_capacity(64),
        };
        kernel.run();
        kernel
    }

    /// Runs the fixed amount of work and returns its wall seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;

        self.heap.clear();
        for step in 0..FLOAT_STEPS {
            let r = xorshift(&mut x);
            let slot = &mut self.buf[(r as usize) & (BUF_LEN - 1)];
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            // Contracts toward ≈ 2: values stay finite however long
            // the process lives.
            *slot = (*slot * 0.5 + 1.0 + unit).powf(0.75);
            if step & 7 == 0 {
                self.heap.push(r);
                if self.heap.len() > HEAP_CAP {
                    black_box(self.heap.pop());
                }
            }
        }

        let mut tree: BTreeMap<u64, f64> = BTreeMap::new();
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut acc = 0.0;
        for step in 0..TABLE_STEPS {
            let r = xorshift(&mut x);
            let key = r & 1023;
            *counts.entry(key).or_insert(0) += 1;
            tree.insert(key, (r >> 11) as f64);
            if tree.len() > TREE_CAP {
                tree.pop_first();
            }
            if step & 15 == 0 {
                self.sorted.clear();
                self.sorted.extend(tree.values().take(48));
                self.sorted.sort_by(f64::total_cmp);
                acc += self.sorted.iter().map(|v| (v + 1.0).ln()).sum::<f64>();
            }
        }

        black_box((&self.buf, counts.len(), acc));
        start.elapsed().as_secs_f64()
    }
}

/// `raw × K_REF / mean(k_before, k_after)`: raw seconds expressed in
/// reference seconds, given the kernel calls that bracketed them.
pub fn normalise(raw: f64, k_before: f64, k_after: f64) -> f64 {
    raw * K_REF / (0.5 * (k_before + k_after))
}
