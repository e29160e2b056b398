//! Interleaved, kernel-bracketed timing: `k₀, rep₁, k₁, rep₂, k₂ …`.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.

use crate::alloc::allocations;
use crate::procstat::process_cpu;
use crate::refkernel::{normalise, RefKernel};
use std::time::Instant;

/// One timed region and the kernel calls that bracketed it.
#[derive(Debug)]
pub struct Timed<T> {
    /// Raw wall seconds.
    pub wall: f64,
    /// Raw process CPU seconds (user + system, all threads).
    pub cpu: f64,
    /// Heap allocations made inside the region (all threads).
    pub allocs: u64,
    /// Kernel wall seconds just before the region.
    pub k_before: f64,
    /// Kernel wall seconds just after it.
    pub k_after: f64,
    /// What the region returned.
    pub value: T,
}

impl<T> Timed<T> {
    /// Wall time in reference seconds.
    pub fn wall_ref(&self) -> f64 {
        normalise(self.wall, self.k_before, self.k_after)
    }

    /// CPU time in reference seconds.
    pub fn cpu_ref(&self) -> f64 {
        normalise(self.cpu, self.k_before, self.k_after)
    }

    /// Factor that turns this region's raw seconds into reference seconds.
    pub fn scale(&self) -> f64 {
        normalise(1.0, self.k_before, self.k_after)
    }
}

/// Times regions with a kernel call between each two, so every region
/// is normalised by the host speed right around it.
pub struct Interleaver {
    kernel: RefKernel,
    last: f64,
    history: Vec<f64>,
}

impl Default for Interleaver {
    fn default() -> Self {
        Self::new()
    }
}

impl Interleaver {
    /// Warms the kernel (one discarded call) and takes `k₀`.
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        let last = kernel.run();
        Interleaver {
            kernel,
            last,
            history: vec![last],
        }
    }

    /// Runs `region` between the previous kernel call and a fresh one.
    pub fn time<T>(&mut self, region: impl FnOnce() -> T) -> Timed<T> {
        let k_before = self.last;
        let (allocs0, cpu0, start) = (allocations(), process_cpu(), Instant::now());
        let value = region();
        let wall = start.elapsed().as_secs_f64();
        let (cpu, allocs) = ((process_cpu() - cpu0).total(), allocations() - allocs0);
        self.refresh();
        Timed {
            wall,
            cpu,
            allocs,
            k_before,
            k_after: self.last,
            value,
        }
    }

    /// Takes a fresh kernel reading (after untimed work, so that the
    /// next region's `k_before` is adjacent to it).
    pub fn refresh(&mut self) {
        self.last = self.kernel.run();
        self.history.push(self.last);
    }

    /// Every kernel reading taken so far, in order.
    pub fn kernel_times(&self) -> &[f64] {
        &self.history
    }
}
