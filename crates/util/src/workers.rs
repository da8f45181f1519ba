//! The engine's one pool: a small executor of long-lived threads.
//!
//! The paper's data servers run their query fragments at the same time
//! (§2.2). An [`Executor`] gives a simulated cluster that concurrency on
//! one host: it starts its helper threads once, parks them on a condition
//! variable, and runs *batches* of **morsels** — units of owned work, such
//! as one node's query fragment or one raster tile to compress — on them
//! together with the calling thread.
//!
//! A batch is `n` morsels `work(0) … work(n - 1)`. [`Executor::run`]
//! publishes the batch, wakes the helpers with one notify and then claims
//! morsels itself. Thread `s` of `t` (the caller is 0) first claims its
//! *home* morsels `s, s + t, …`, then any still unclaimed, through one
//! atomic claim flag per morsel. So when the caller finishes the batch
//! before a helper wakes, the batch cost nothing but that notify; and when
//! the threads keep pace, a node's fragment runs on the same thread query
//! after query, so each thread's allocator arena holds the same nodes' data
//! instead of growing to hold whichever nodes it last ran. Each thread
//! runs at most one morsel at a time, so a morsel's measured busy time
//! stays close to its CPU time. An idle helper sleeps on the condition
//! variable and never spins.
//!
//! Morsels are owned work (`'static`): the closure captures `Arc` handles
//! and owned inputs and returns each morsel's output, which the executor
//! hands back in morsel order. The closure is dropped on the calling
//! thread before `run` returns, so a helper never holds the last handle to
//! anything it captured.
//!
//! ## Determinism rule
//!
//! Outputs are merged **in morsel order**, whichever thread ran each
//! morsel, and callers report the lowest failing morsel's error first. A
//! morsel's work never depends on which thread runs it or on how many
//! threads there are, so every thread count produces byte-for-byte the
//! output of a serial loop — the invariant the Local-vs-Tcp byte-identity
//! and chaos suites rely on.
//!
//! Only one batch is in flight on the helpers at a time. A batch started
//! while another is in flight — by a morsel of that batch, or by a second
//! caller thread — runs inline on its own caller, so nesting never
//! deadlocks and never oversubscribes the host.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Monotonic counters describing everything an executor has run.
///
/// Snapshot before and after a region and diff with [`PoolSnapshot::since`]
/// to attribute morsels to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Batches run (one per [`Executor::run`] call).
    pub runs: u64,
    /// Morsels run, by any thread.
    pub morsels: u64,
    /// Morsels a helper thread ran; the rest ran on their caller's thread.
    pub helper_morsels: u64,
    /// Busy nanoseconds summed over every morsel.
    pub busy_ns: u64,
}

impl PoolSnapshot {
    /// The counters accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            runs: self.runs.saturating_sub(earlier.runs),
            morsels: self.morsels.saturating_sub(earlier.morsels),
            helper_morsels: self.helper_morsels.saturating_sub(earlier.helper_morsels),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
        }
    }
}

/// One finished morsel.
#[derive(Debug)]
pub struct Done<O> {
    /// The morsel's output, or the message of the panic that ended it.
    pub out: Result<O, String>,
    /// When the morsel started.
    pub start: Instant,
    /// How long it ran.
    pub busy: Duration,
    /// Whether a helper thread ran it rather than the caller of
    /// [`Executor::run`].
    pub on_helper: bool,
}

/// A batch as the helpers see it.
trait Help: Send + Sync {
    /// Claims and runs morsels until none is left, as thread `slot` (0 is
    /// the caller, helper `i` is `i + 1`).
    fn help(&self, slot: usize);
}

/// The state a batch's threads share.
struct Batch<O, F> {
    /// The morsel closure; taken (and dropped) by the caller once every
    /// morsel has finished.
    work: RwLock<Option<F>>,
    n: usize,
    /// Whether each morsel is claimed.
    claimed: Vec<AtomicBool>,
    /// Threads that may run the batch, the caller's included.
    threads: usize,
    /// Finished morsels by id, and how many there are.
    done: Mutex<(Vec<Option<Done<O>>>, usize)>,
    finished: Condvar,
}

impl<O: Send, F: Fn(usize) -> O + Send + Sync> Help for Batch<O, F> {
    fn help(&self, slot: usize) {
        let work = self.work.read().unwrap_or_else(PoisonError::into_inner);
        let Some(work) = work.as_ref() else { return };
        // Home morsels first (`slot`, `slot + threads`, …), then any left.
        let home = (slot..self.n).step_by(self.threads);
        for id in home.chain(0..self.n) {
            let claim = &self.claimed[id];
            if claim.load(Ordering::Relaxed) || claim.swap(true, Ordering::Relaxed) {
                continue;
            }
            let on_helper = slot > 0;
            let start = Instant::now();
            let out = panic::catch_unwind(AssertUnwindSafe(|| work(id))).map_err(panic_message);
            let busy = start.elapsed();
            let mut done = lock(&self.done);
            done.0[id] = Some(Done { out, start, busy, on_helper });
            done.1 += 1;
            if done.1 == self.n {
                self.finished.notify_all();
            }
        }
    }
}

impl<O, F> Batch<O, F> {
    /// Waits until every morsel has finished, drops the closure and returns
    /// the outputs in morsel order.
    fn finish(&self) -> Vec<Done<O>> {
        let mut done = lock(&self.done);
        while done.1 < self.n {
            done = self.finished.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
        let outs = done.0.drain(..).map(|d| d.expect("every morsel finished")).collect();
        drop(done);
        drop(self.work.write().unwrap_or_else(PoisonError::into_inner).take());
        outs
    }
}

/// The text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => s.to_string(),
            Err(_) => "panic with a non-string payload".to_string(),
        },
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the helpers wait on.
#[derive(Default)]
struct State {
    /// The batch in flight, if any.
    batch: Option<Arc<dyn Help>>,
    /// Bumped each time a batch is published.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// A fixed set of long-lived helper threads that run batches of owned
/// morsels together with the calling thread.
///
/// ```
/// use paradise_util::workers::Executor;
///
/// let exec = Executor::new(1).unwrap();
/// let input: std::sync::Arc<Vec<u64>> = std::sync::Arc::new((0..10_000).collect());
/// let data = input.clone();
/// // One output per morsel, in morsel order, whichever thread ran it.
/// let sums: Vec<u64> = exec
///     .run(4, move |i| data[i * 2_500..(i + 1) * 2_500].iter().sum::<u64>())
///     .into_iter()
///     .map(|d| d.out.unwrap())
///     .collect();
/// assert_eq!(sums.iter().sum::<u64>(), input.iter().sum::<u64>());
/// ```
pub struct Executor {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    runs: AtomicU64,
    morsels: AtomicU64,
    helper_morsels: AtomicU64,
    busy_ns: AtomicU64,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers()).finish()
    }
}

/// One thread per core: the host's available parallelism, or 1 if it
/// cannot be determined.
pub fn default_workers() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Executor {
    /// An executor with `helpers` helper threads, started now; fails when
    /// the OS refuses a thread.
    pub fn new(helpers: usize) -> std::io::Result<Executor> {
        let shared = Arc::new(Shared { state: Mutex::default(), wake: Condvar::new() });
        let mut exec = Executor {
            shared: shared.clone(),
            helpers: Vec::with_capacity(helpers),
            runs: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            helper_morsels: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        };
        for i in 0..helpers {
            let shared = shared.clone();
            // On failure `exec` drops here and joins the helpers started.
            let h = thread::Builder::new()
                .name(format!("paradise-exec-{i}"))
                .spawn(move || helper(&shared, i + 1))?;
            exec.helpers.push(h);
        }
        Ok(exec)
    }

    /// An executor sized for this host: [`default_workers`]` - 1` helpers,
    /// so that with the calling thread there is one thread per core.
    pub fn for_host() -> std::io::Result<Executor> {
        Executor::new(default_workers() - 1)
    }

    /// The threads that run a batch: the helpers plus the calling thread.
    pub fn workers(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Current values of the executor's monotonic counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            helper_morsels: self.helper_morsels.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Runs the morsels `work(0) … work(n - 1)` on the helpers and the
    /// calling thread and returns one [`Done`] per morsel, **in morsel
    /// order**. A morsel that panics yields its panic message; the
    /// executor stays usable.
    ///
    /// ```
    /// use paradise_util::workers::Executor;
    ///
    /// let exec = Executor::new(1).unwrap();
    /// let words = std::sync::Arc::new(["tile", "sweep", "node", "fragment"]);
    /// let upper: Vec<String> = exec
    ///     .run(words.len(), move |i| words[i].to_uppercase())
    ///     .into_iter()
    ///     .map(|d| d.out.unwrap())
    ///     .collect();
    /// assert_eq!(upper, ["TILE", "SWEEP", "NODE", "FRAGMENT"]);
    /// ```
    pub fn run<O, F>(&self, n: usize, work: F) -> Vec<Done<O>>
    where
        O: Send + 'static,
        F: Fn(usize) -> O + Send + Sync + 'static,
    {
        let batch = Arc::new(Batch {
            work: RwLock::new(Some(work)),
            n,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            threads: self.workers(),
            done: Mutex::new(((0..n).map(|_| None).collect(), 0)),
            finished: Condvar::new(),
        });
        let epoch = if n > 1 { self.publish(batch.clone()) } else { None };
        batch.help(0);
        if let Some(epoch) = epoch {
            // Every morsel is claimed: the helpers may take the next batch.
            let mut st = lock(&self.shared.state);
            if st.epoch == epoch {
                st.batch = None;
            }
        }
        let done = batch.finish();
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.morsels.fetch_add(n as u64, Ordering::Relaxed);
        let on_helpers = done.iter().filter(|d| d.on_helper).count();
        self.helper_morsels.fetch_add(on_helpers as u64, Ordering::Relaxed);
        let busy: Duration = done.iter().map(|d| d.busy).sum();
        self.busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        done
    }

    /// Hands `batch` to the helpers, unless there are none or another
    /// batch is in flight. Returns the batch's epoch when published.
    fn publish(&self, batch: Arc<dyn Help>) -> Option<u64> {
        if self.helpers.is_empty() {
            return None;
        }
        let mut st = lock(&self.shared.state);
        if st.batch.is_some() {
            return None;
        }
        st.batch = Some(batch);
        st.epoch += 1;
        self.shared.wake.notify_all();
        Some(st.epoch)
    }
}

/// A helper's life: sleep until a batch is published, help run it, repeat
/// until the executor shuts down.
fn helper(shared: &Shared, slot: usize) {
    let mut seen = 0;
    loop {
        let batch = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(b) = &st.batch {
                        break b.clone();
                    }
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.help(slot);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        let me = thread::current().id();
        for h in self.helpers.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn outs<O>(done: Vec<Done<O>>) -> Vec<O> {
        done.into_iter().map(|d| d.out.unwrap()).collect()
    }

    #[test]
    fn outputs_in_morsel_order_across_worker_counts() {
        let input: Arc<Vec<usize>> = Arc::new((0..10_007).collect());
        let tripled = |helpers: usize| -> Vec<usize> {
            let input = input.clone();
            let exec = Executor::new(helpers).unwrap();
            outs(exec.run(input.len().div_ceil(64), move |m| {
                input[m * 64..((m + 1) * 64).min(input.len())]
                    .iter()
                    .map(|x| x * 3)
                    .collect::<Vec<_>>()
            }))
            .concat()
        };
        let reference: Vec<usize> = input.iter().map(|x| x * 3).collect();
        for helpers in [0, 1, 3] {
            assert_eq!(tripled(helpers), reference, "helpers={helpers}");
        }
    }

    #[test]
    fn error_is_lowest_failing_morsel() {
        // Morsels 3 and 7 fail; in morsel order, every thread count reports
        // morsel 3 first.
        for helpers in [0, 1, 3] {
            let done = Executor::new(helpers).unwrap().run(10, |m| {
                if m == 3 || m == 7 {
                    Err(m)
                } else {
                    Ok(m)
                }
            });
            let first = done.into_iter().find_map(|d| d.out.unwrap().err());
            assert_eq!(first, Some(3), "helpers={helpers}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Executor::new(2).unwrap();
        assert!(exec.run(0, |m| m).is_empty());
        let one = exec.run(1, |m| m);
        assert!(!one[0].on_helper, "a single morsel runs on its caller");
        let snap = exec.snapshot();
        assert_eq!((snap.runs, snap.morsels, snap.helper_morsels), (2, 1, 0));
    }

    #[test]
    fn snapshot_counts_runs_and_morsels() {
        let exec = Executor::new(1).unwrap();
        let before = exec.snapshot();
        exec.run(10, |_| ());
        exec.run(1, |_| ());
        let delta = exec.snapshot().since(&before);
        assert_eq!(delta.runs, 2);
        assert_eq!(delta.morsels, 11);
        assert!(delta.helper_morsels <= 9, "{delta:?}");
    }

    #[test]
    fn morsel_boundaries_ignore_worker_count() {
        // Float accumulation order is fixed by each morsel's range, so
        // partial sums are bit-identical for every thread count.
        let input: Arc<Vec<f64>> = Arc::new((0..5_000).map(|i| 1.0 / (i as f64 + 1.0)).collect());
        let sums = |helpers: usize| -> Vec<u64> {
            let input = input.clone();
            let done = Executor::new(helpers).unwrap().run(5, move |m| {
                input[m * 1024..((m + 1) * 1024).min(input.len())].iter().sum::<f64>()
            });
            outs(done).iter().map(|f| f.to_bits()).collect()
        };
        let reference = sums(0);
        for helpers in [1, 3] {
            assert_eq!(sums(helpers), reference, "helpers={helpers}");
        }
    }

    #[test]
    fn a_panicking_morsel_is_reported_and_the_executor_stays_usable() {
        let exec = Executor::new(1).unwrap();
        let done = exec.run(4, |m| {
            if m == 2 {
                panic!("morsel {m} failed");
            }
            m
        });
        assert_eq!(done[2].out.as_ref().unwrap_err(), "morsel 2 failed");
        assert_eq!(done[3].out.as_ref().unwrap(), &3);
        assert_eq!(outs(exec.run(3, |m| m + 1)), vec![1, 2, 3]);
    }

    #[test]
    fn helpers_run_morsels_concurrently_with_the_caller() {
        // Two morsels can only both pass the barrier if two threads run
        // them at the same time.
        let exec = Executor::new(1).unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let done = exec.run(2, move |_| {
            barrier.wait();
        });
        assert_eq!(done.iter().filter(|d| d.on_helper).count(), 1);
    }

    #[test]
    fn nested_batches_run_inline_on_their_caller() {
        let exec = Arc::new(Executor::new(1).unwrap());
        let inner = exec.clone();
        let got = outs(exec.run(2, move |i| outs(inner.run(3, move |j| i * 10 + j))));
        assert_eq!(got, vec![vec![0, 1, 2], vec![10, 11, 12]]);
    }

    #[test]
    fn the_closure_is_dropped_before_run_returns() {
        let exec = Executor::new(1).unwrap();
        let token = Arc::new(());
        let held = token.clone();
        exec.run(8, move |_| {
            let _ = &held;
        });
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
