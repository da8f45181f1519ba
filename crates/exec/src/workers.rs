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
//! Exactly two clients run through the pool, the two that measured faster
//! on it than as plain loops (DESIGN.md §10):
//!
//! - the PBSM join, [`crate::ops::spatial_join::parallel_spatial_join`]:
//!   its two fragment scans (one morsel each), the plane-sweep filter and
//!   refine (morsel = [`TILE_MORSEL`] sorted tiles) and the decoding and
//!   row building of its matches (morsel = [`ROW_MORSEL`] rows),
//! - LZW compression of a raster's tiles at load, in
//!   [`crate::raster_store::store_raster`] (morsel = [`BLOB_MORSEL`] tile).
//!
//! Every other kernel — region reads and their LZW decompression, generic
//! scans, Q7's refinement — is a plain loop on the calling thread: each
//! [`WorkerPool::run`] spawns scoped OS threads, which cost those kernels
//! more than they saved.
//!
//! Per-run busy time and morsel counts accumulate in the pool's counters;
//! [`register_pool_metrics`] publishes them into the cluster's obs
//! registry and the measured phase driver snapshots them per phase so
//! `EXPLAIN ANALYZE` can annotate operators with `morsels=`.

use std::sync::Arc;

use paradise_obs::MetricsRegistry;
pub use paradise_util::workers::{
    default_workers, PoolSnapshot, WorkerPool, BLOB_MORSEL, ROW_MORSEL, TILE_MORSEL,
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
