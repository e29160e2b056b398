//! Process CPU time and peak resident set, read from the kernel.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: the two CPU times, then 14 `long`s
/// this module does not read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds consumed so far, exited threads included. The sum is the
/// scheduler's own run-time count, reported to the microsecond (it
/// agrees with `CLOCK_PROCESS_CPUTIME_ID` to 5 us); how the kernel
/// divides it into user and system time is sampled at the timer tick,
/// so the split is far noisier than the sum: eight identical 13.7 ms
/// loops read 3.3-12.3 ms of user time. Metrics use the sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSplit {
    /// Seconds spent in the program's own code.
    pub user: f64,
    /// Seconds the kernel spent on the program's behalf.
    pub system: f64,
}

impl CpuSplit {
    /// User + system seconds.
    pub fn total(self) -> f64 {
        self.user + self.system
    }
}

impl std::ops::Sub for CpuSplit {
    type Output = CpuSplit;
    fn sub(self, earlier: CpuSplit) -> CpuSplit {
        CpuSplit {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }
}

/// CPU seconds of the whole process so far.
pub fn process_cpu() -> CpuSplit {
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut usage = Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `rusage` of the layout the
    // 64-bit Linux C library expects, and `RUSAGE_SELF` is a `who` the
    // kernel defines.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "resource usage of self is always readable");
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    CpuSplit {
        user: seconds(&usage.ru_utime),
        system: seconds(&usage.ru_stime),
    }
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") / 1024.0
}

/// Extracts the `VmHWM` value (kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}
