//! Intra-node worker pool: morsel-driven parallelism inside one data
//! server.
//!
//! The cluster parallelises *across* nodes (§2.2, §2.7 of the paper); this
//! module parallelises *inside* each node's operator kernels in the style
//! of "Parallel In-Memory Evaluation of Spatial Joins" (Tsitsigkos &
//! Mamoulis): inputs are cut into fixed-size morsels, claimed dynamically
//! by real scoped threads, and merged back **in morsel order** so results
//! are byte-identical for every pool size (see [`WorkerPool`] for the full
//! determinism rule). Each cluster owns one pool sized from the host's
//! available parallelism ([`default_workers`]); kernels take it as an
//! explicit `&WorkerPool` argument.
//!
//! Kernels driven through the pool:
//!
//! - PBSM tile buckets in [`crate::ops::spatial_join`] (plane-sweep filter
//!   per tile, morsel = a run of sorted tiles),
//! - per-tuple projection in [`crate::ops::basic::par_project`],
//! - LZW tile compress/decompress batches in `paradise_array::lzw` (used
//!   by [`crate::raster_store`]).
//!
//! Per-run busy time and morsel counts accumulate in the pool's counters;
//! [`register_pool_metrics`] publishes them into the cluster's obs
//! registry and the measured phase driver snapshots them per phase so
//! `EXPLAIN ANALYZE` can annotate operators with `morsels=`.

use std::sync::Arc;

use paradise_obs::MetricsRegistry;
pub use paradise_util::workers::{
    default_workers, PoolSnapshot, WorkerPool, BLOB_MORSEL, TILE_MORSEL, TUPLE_MORSEL,
};

/// Publishes the pool's counters into a metrics registry as lazy
/// collectors: `exec.worker.pool_size`, `exec.worker.runs`,
/// `exec.worker.morsels`, and `exec.worker.busy_ns`.
pub fn register_pool_metrics(obs: &MetricsRegistry, pool: &Arc<WorkerPool>) {
    let p = pool.clone();
    obs.register_collector("exec.worker.pool_size", move || p.workers() as u64);
    let p = pool.clone();
    obs.register_collector("exec.worker.runs", move || p.snapshot().runs);
    let p = pool.clone();
    obs.register_collector("exec.worker.morsels", move || p.snapshot().morsels);
    let p = pool.clone();
    obs.register_collector("exec.worker.busy_ns", move || p.snapshot().busy_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectors_read_the_pool() {
        let pool = Arc::new(WorkerPool::new(3));
        let obs = MetricsRegistry::new();
        register_pool_metrics(&obs, &pool);
        let sample = |name: &str| {
            obs.samples().into_iter().find(|s| s.name == name).map(|s| s.value).unwrap()
        };
        assert_eq!(sample("exec.worker.pool_size"), 3);
        assert_eq!(sample("exec.worker.morsels"), 0);
        pool.run(10, 1, |_| Ok::<_, ()>(())).unwrap();
        assert_eq!(sample("exec.worker.morsels"), 10);
        assert_eq!(sample("exec.worker.runs"), 1);
    }
}
