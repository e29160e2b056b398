//! The sweep executor: fans run specs out across all cores.
//!
//! A shared atomic cursor over the spec list gives work stealing without
//! queues: each scoped worker thread claims the next unclaimed index,
//! runs it, and appends `(index, result)` to a thread-local batch that
//! is merged and re-sorted at the end. Results are therefore a pure
//! function of the spec list — **byte-identical between serial and
//! parallel execution and across thread counts** — which the
//! `sweep_determinism` proptest pins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over `0..n` with up to `jobs` worker threads (`None` = one
/// per core the OS reports). Returns results in index order regardless
/// of scheduling.
pub fn run_indexed<T, F>(n: usize, jobs: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cores = || std::thread::available_parallelism().map_or(1, |c| c.get());
    let jobs = jobs.unwrap_or_else(cores).max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    local.push((idx, f(idx)));
                }
                if !local.is_empty() {
                    match collected.lock() {
                        Ok(mut all) => all.extend(local),
                        Err(poisoned) => poisoned.into_inner().extend(local),
                    }
                }
            });
        }
    });

    let mut all = match collected.into_inner() {
        Ok(all) => all,
        Err(poisoned) => poisoned.into_inner(),
    };
    all.sort_by_key(|(idx, _)| *idx);
    all.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = run_indexed(100, Some(1), |i| i * i);
        let parallel = run_indexed(100, Some(8), |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_indexed(257, Some(5), |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        let distinct: BTreeSet<usize> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 257);
    }

    #[test]
    fn zero_and_one_item_edge_cases() {
        assert!(run_indexed(0, None, |i| i).is_empty());
        assert_eq!(run_indexed(1, Some(16), |i| i + 1), vec![1]);
    }
}
