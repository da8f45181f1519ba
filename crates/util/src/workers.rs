//! Intra-node morsel parallelism: a small, std-only worker pool.
//!
//! The paper's Paradise parallelises *across* data servers (§2.2, §2.7);
//! this module parallelises *inside* one node, in the style of
//! morsel-driven execution: a kernel's input is cut into fixed-size
//! **morsels** (index ranges), workers claim morsels dynamically from a
//! shared atomic counter, and the per-morsel outputs are merged back **in
//! morsel order**.
//!
//! ## Determinism rule
//!
//! Two properties make every pool-driven kernel bit-reproducible:
//!
//! 1. **Morsel boundaries depend only on the input length and the kernel's
//!    fixed morsel size — never on the worker count.** Floating-point
//!    reductions therefore associate identically whether the pool has 1 or
//!    8 workers; only *which thread* runs a morsel varies.
//! 2. **Outputs are merged in morsel index order**, and the first error is
//!    the one from the lowest-numbered failing morsel.
//!
//! Consequently `WorkerPool::new(1)` produces byte-for-byte the output of a
//! plain serial loop, and any worker count produces byte-for-byte the
//! output of any other — the invariant the Local-vs-Tcp byte-identity and
//! chaos suites rely on.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Fixed morsel size (tiles) for PBSM tile-bucket kernels: one morsel is a
/// run of adjacent tiles in sorted tile order.
pub const TILE_MORSEL: usize = 8;

/// Fixed morsel size (rows) for a PBSM join's materialisation: decoding
/// the records it matched and building its output rows.
pub const ROW_MORSEL: usize = 1024;

/// Fixed morsel size for large-blob kernels (LZW tile compression): one
/// blob per morsel, since a single tile is already thousands of bytes of
/// work.
pub const BLOB_MORSEL: usize = 1;

/// Monotonic counters describing everything a pool has executed.
///
/// Snapshot before and after a region and diff with [`PoolSnapshot::since`]
/// to attribute morsels/busy-time to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Number of `run` invocations (one per kernel call).
    pub runs: u64,
    /// Total morsels executed.
    pub morsels: u64,
    /// Total busy nanoseconds summed across all workers.
    pub busy_ns: u64,
}

impl PoolSnapshot {
    /// The counters accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            runs: self.runs.saturating_sub(earlier.runs),
            morsels: self.morsels.saturating_sub(earlier.morsels),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
        }
    }
}

/// A fixed-size intra-node worker pool executing kernels as ordered
/// morsels on real scoped OS threads, claimed dynamically. A run with one
/// worker (or one morsel) is a plain inline loop.
///
/// ```
/// use paradise_util::workers::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let input: Vec<u64> = (0..10_000).collect();
/// // One output per morsel, merged in morsel order.
/// let partial_sums = pool
///     .run(input.len(), 1024, |r| Ok::<u64, ()>(input[r].iter().sum()))
///     .unwrap();
/// assert_eq!(partial_sums.iter().sum::<u64>(), input.iter().sum::<u64>());
/// // Morsel boundaries don't depend on worker count, so any pool size
/// // yields the identical partials.
/// let serial = WorkerPool::new(1)
///     .run(input.len(), 1024, |r| Ok::<u64, ()>(input[r].iter().sum()))
///     .unwrap();
/// assert_eq!(partial_sums, serial);
/// ```
pub struct WorkerPool {
    workers: usize,
    runs: AtomicU64,
    morsels: AtomicU64,
    busy_ns: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

/// One worker per core: the host's available parallelism, or 1 if it
/// cannot be determined.
pub fn default_workers() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl WorkerPool {
    /// A pool of `workers` OS threads (clamped to at least 1). Pass the
    /// result of [`default_workers`] for one worker per core.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            runs: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current values of the pool's monotonic counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Execute a kernel over `0..len` as fixed-size morsels and return one
    /// output per morsel, **in morsel order**.
    ///
    /// `morsel_len` must be the kernel's fixed constant (e.g.
    /// [`TILE_MORSEL`]) — never derived from the worker count — so that
    /// morsel boundaries, and therefore all floating-point association
    /// orders, are identical for every pool size. On error the lowest
    /// failing morsel index wins, matching what a serial loop would report
    /// first.
    ///
    /// ```
    /// use paradise_util::workers::WorkerPool;
    ///
    /// let pool = WorkerPool::new(2);
    /// let words = ["tile", "sweep", "morsel", "refine"];
    /// let upper: Vec<String> = pool
    ///     .run(words.len(), 2, |r| {
    ///         Ok::<Vec<String>, ()>(words[r].iter().map(|w| w.to_uppercase()).collect())
    ///     })
    ///     .unwrap()
    ///     .concat();
    /// assert_eq!(upper, ["TILE", "SWEEP", "MORSEL", "REFINE"]);
    /// ```
    pub fn run<O, E, F>(&self, len: usize, morsel_len: usize, f: F) -> Result<Vec<O>, E>
    where
        O: Send,
        E: Send,
        F: Fn(Range<usize>) -> Result<O, E> + Sync,
    {
        let morsel_len = morsel_len.max(1);
        let num_morsels = len.div_ceil(morsel_len);
        let morsel_range = |i: usize| i * morsel_len..((i + 1) * morsel_len).min(len);

        self.runs.fetch_add(1, Ordering::Relaxed);
        self.morsels.fetch_add(num_morsels as u64, Ordering::Relaxed);

        let threads = self.workers.min(num_morsels);
        if threads <= 1 {
            self.run_inline(num_morsels, &morsel_range, &f)
        } else {
            self.run_threads(threads, num_morsels, &morsel_range, &f)
        }
    }

    /// Inline execution on the calling thread: a plain serial loop over
    /// the morsels, stopping at the first error.
    fn run_inline<O, E>(
        &self,
        num_morsels: usize,
        morsel_range: &dyn Fn(usize) -> Range<usize>,
        f: &dyn Fn(Range<usize>) -> Result<O, E>,
    ) -> Result<Vec<O>, E> {
        let t0 = Instant::now();
        let out = (0..num_morsels).map(|m| f(morsel_range(m))).collect();
        self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Real scoped threads with dynamic morsel claiming. The calling
    /// thread is worker 0, so only `threads - 1` threads are spawned.
    fn run_threads<O, E, F>(
        &self,
        threads: usize,
        num_morsels: usize,
        morsel_range: &(dyn Fn(usize) -> Range<usize> + Sync),
        f: &F,
    ) -> Result<Vec<O>, E>
    where
        O: Send,
        E: Send,
        F: Fn(Range<usize>) -> Result<O, E> + Sync,
    {
        // One entry per worker: its claimed (morsel index, result) pairs
        // plus its total busy time.
        type WorkerOut<O, E> = (Vec<(usize, Result<O, E>)>, Duration);
        let next = AtomicUsize::new(0);
        let work = || -> WorkerOut<O, E> {
            let mut local = Vec::new();
            let mut busy = Duration::ZERO;
            loop {
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= num_morsels {
                    break;
                }
                let t0 = Instant::now();
                let r = f(morsel_range(m));
                busy += t0.elapsed();
                local.push((m, r));
            }
            (local, busy)
        };
        let per_worker: Vec<WorkerOut<O, E>> = thread::scope(|scope| {
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut outs = vec![work()];
            outs.extend(handles.into_iter().map(|h| h.join().expect("pool worker panicked")));
            outs
        });

        let mut slots: Vec<Option<Result<O, E>>> = (0..num_morsels).map(|_| None).collect();
        let mut total = Duration::ZERO;
        for (local, busy) in per_worker {
            total += busy;
            for (m, r) in local {
                slots[m] = Some(r);
            }
        }
        self.busy_ns.fetch_add(total.as_nanos() as u64, Ordering::Relaxed);

        // Merge in morsel order; the lowest failing morsel reports first.
        let mut out = Vec::with_capacity(num_morsels);
        for slot in slots {
            match slot.expect("all morsels claimed") {
                Ok(o) => out.push(o),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_in_morsel_order_across_worker_counts() {
        let input: Vec<usize> = (0..10_007).collect();
        let tripled = |pool: WorkerPool| -> Vec<usize> {
            pool.run(input.len(), 64, |r| {
                Ok::<Vec<usize>, ()>(input[r].iter().map(|x| x * 3).collect())
            })
            .unwrap()
            .concat()
        };
        let reference = tripled(WorkerPool::new(1));
        for workers in [2, 4, 7] {
            let got = tripled(WorkerPool::new(workers));
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn error_is_lowest_failing_morsel() {
        // Morsels 3 and 7 fail; every worker count must report morsel 3.
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            let err = pool
                .run(100, 10, |r| {
                    let m = r.start / 10;
                    if m == 3 || m == 7 {
                        Err(m)
                    } else {
                        Ok(m)
                    }
                })
                .unwrap_err();
            assert_eq!(err, 3, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = WorkerPool::new(4);
        let out = pool.run(0, 16, |_| Ok::<usize, ()>(0)).unwrap();
        assert!(out.is_empty());
        assert_eq!(pool.snapshot().morsels, 0);
        assert_eq!(pool.snapshot().runs, 1);
    }

    #[test]
    fn snapshot_counts_runs_and_morsels() {
        let pool = WorkerPool::new(2);
        let before = pool.snapshot();
        pool.run(100, 10, |_| Ok::<_, ()>(())).unwrap();
        pool.run(5, 10, |_| Ok::<_, ()>(())).unwrap();
        let delta = pool.snapshot().since(&before);
        assert_eq!(delta.runs, 2);
        assert_eq!(delta.morsels, 11);
    }

    #[test]
    fn morsel_boundaries_ignore_worker_count() {
        // Float accumulation order is fixed by morsel size, so partial sums
        // are bit-identical across pool sizes.
        let input: Vec<f64> = (0..5_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sums = |workers: usize| -> Vec<f64> {
            WorkerPool::new(workers)
                .run(input.len(), 1024, |r| Ok::<_, ()>(input[r].iter().sum::<f64>()))
                .unwrap()
        };
        let reference = sums(1);
        for workers in [2, 4, 7] {
            let got = sums(workers);
            assert_eq!(
                got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }
}
