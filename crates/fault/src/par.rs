//! Worker-thread policy for the fault simulators.
//!
//! Both [`crate::CombFaultSim`] and [`crate::SeqFaultSim`] shard their
//! per-fault work across a scoped worker pool (`std::thread::scope`, no
//! external runtime). The sharding is *deterministic*: every fault is
//! simulated over the same cycles in the same order regardless of the
//! thread count, and per-fault results are merged in fault order, so a run
//! with `threads: N` is bit-identical to `threads: 1`. A worker that
//! panics surfaces as [`NetlistError::WorkerPanicked`] from the run that
//! spawned it.

use std::num::NonZeroUsize;
use std::thread::ScopedJoinHandle;

use soctest_netlist::NetlistError;

/// How many worker threads a fault-simulation campaign may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Worker-thread count; `0` means "all available cores"
    /// ([`std::thread::available_parallelism`]). `1` keeps the whole
    /// campaign on the calling thread (the exact serial code path).
    pub threads: usize,
}

impl Default for ParallelPolicy {
    /// All available cores.
    fn default() -> Self {
        ParallelPolicy { threads: 0 }
    }
}

impl ParallelPolicy {
    /// A policy pinned to the calling thread only.
    pub fn serial() -> Self {
        ParallelPolicy { threads: 1 }
    }

    /// A policy with an explicit worker count (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        ParallelPolicy { threads }
    }

    /// Resolves the policy to a concrete thread count (≥ 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Worker count for a campaign with `items` independent work units
    /// (fault-lane chunks, faults, …): [`ParallelPolicy::effective_threads`]
    /// clamped to the available work, never below 1. A result of `1` —
    /// e.g. `threads: 0` on a single-core host, or fewer chunks than
    /// cores — tells the simulator to take the exact serial path instead
    /// of spinning up the worker-pool machinery.
    pub fn workers_for(&self, items: usize) -> usize {
        self.effective_threads().min(items.max(1))
    }
}

/// Splits `items` into at most `scratches.len()` contiguous shards and
/// runs `f(offset, shard, scratch)` on each, where `offset` is the shard's
/// first index in `items`. One shard runs on the calling thread; more run
/// on one scoped worker each. Results come back in shard order.
pub(crate) fn map_shards<T, S, R, F>(
    items: &mut [T],
    scratches: &mut [S],
    f: F,
) -> Result<Vec<R>, NetlistError>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut S) -> R + Sync,
{
    let workers = scratches.len().min(items.len());
    if workers <= 1 {
        return Ok(scratches
            .first_mut()
            .map(|scratch| f(0, items, scratch))
            .into_iter()
            .collect());
    }
    let per = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(per)
            .zip(scratches.iter_mut())
            .enumerate()
            .map(|(k, (shard, scratch))| s.spawn(move || f(k * per, shard, scratch)))
            .collect();
        join_all(handles)
    })
}

/// Joins every worker, then returns their results in spawn order, or
/// [`NetlistError::WorkerPanicked`] if any of them panicked. Joining all
/// of them first means no panicked worker is left for the scope to
/// re-raise.
pub(crate) fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Result<Vec<T>, NetlistError> {
    let joined: Vec<_> = handles.into_iter().map(ScopedJoinHandle::join).collect();
    joined
        .into_iter()
        .map(|r| r.map_err(|_| NetlistError::WorkerPanicked))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resolves_to_at_least_one_thread() {
        assert!(ParallelPolicy::default().effective_threads() >= 1);
    }

    #[test]
    fn explicit_counts_pass_through() {
        assert_eq!(ParallelPolicy::serial().effective_threads(), 1);
        assert_eq!(ParallelPolicy::with_threads(7).effective_threads(), 7);
    }

    #[test]
    fn workers_clamp_to_the_available_work() {
        let p = ParallelPolicy::with_threads(8);
        assert_eq!(p.workers_for(3), 3, "fewer chunks than threads");
        assert_eq!(p.workers_for(100), 8, "plenty of work");
        assert_eq!(p.workers_for(0), 1, "no work still means one worker");
        assert_eq!(ParallelPolicy::serial().workers_for(100), 1);
    }
}
