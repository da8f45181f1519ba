//! The cluster's executor: the one pool of threads in the engine.
//!
//! Each cluster owns one [`Executor`] ([`crate::Cluster::workers`]),
//! started with the cluster and sized from the host's available
//! parallelism: [`default_workers`]` - 1` long-lived helper threads plus
//! the thread that runs the query. It has two clients (DESIGN.md §10):
//!
//! - the measured phase driver, [`crate::phase::run_phase`]: every phase's
//!   node fragments run on it concurrently, one morsel per node and one
//!   fragment per thread at a time, the way the paper's data servers run
//!   theirs;
//! - LZW compression of a raster's tiles at load, in
//!   [`crate::raster_store::store_raster`], one morsel per tile.
//!
//! Inside a fragment every kernel — the PBSM sweep, region reads, generic
//! scans — is a plain loop on the thread running the fragment, so the host
//! is never oversubscribed.
//!
//! [`register_pool_metrics`] publishes the executor's counters into the
//! cluster's obs registry; the phase driver records each phase's helper
//! share in [`crate::metrics::PhaseTimes`].

use std::sync::Arc;

use paradise_obs::MetricsRegistry;
pub use paradise_util::workers::{default_workers, Done, Executor, PoolSnapshot};

/// Publishes the executor's counters into a metrics registry as lazy
/// collectors: `exec.worker.pool_size` (threads, the caller's included),
/// `exec.worker.runs` (batches), `exec.worker.morsels`,
/// `exec.worker.helper_morsels` and `exec.worker.busy_ns`. The collectors
/// hold the executor weakly: a registry that outlives its cluster keeps no
/// helper thread alive, and reads 0 from then on.
pub fn register_pool_metrics(obs: &MetricsRegistry, exec: &Arc<Executor>) {
    let read = |f: fn(&Executor) -> u64| {
        let e = Arc::downgrade(exec);
        move || e.upgrade().map_or(0, |e| f(&e))
    };
    obs.register_collector("exec.worker.pool_size", read(|e| e.workers() as u64));
    obs.register_collector("exec.worker.runs", read(|e| e.snapshot().runs));
    obs.register_collector("exec.worker.morsels", read(|e| e.snapshot().morsels));
    obs.register_collector("exec.worker.helper_morsels", read(|e| e.snapshot().helper_morsels));
    obs.register_collector("exec.worker.busy_ns", read(|e| e.snapshot().busy_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectors_read_the_pool() {
        let exec = Arc::new(Executor::new(2).unwrap());
        let obs = MetricsRegistry::new();
        register_pool_metrics(&obs, &exec);
        let sample = |name: &str| {
            obs.samples().into_iter().find(|s| s.name == name).map(|s| s.value).unwrap()
        };
        assert_eq!(sample("exec.worker.pool_size"), 3);
        assert_eq!(sample("exec.worker.morsels"), 0);
        exec.run(10, |_| ());
        assert_eq!(sample("exec.worker.morsels"), 10);
        assert_eq!(sample("exec.worker.runs"), 1);
        drop(exec);
        assert_eq!(sample("exec.worker.pool_size"), 0, "the registry kept the executor");
    }
}
