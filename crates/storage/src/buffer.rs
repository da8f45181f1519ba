//! The buffer pool.
//!
//! Paper §3.2: "Paradise was configured to use a 32 MByte buffer pool …
//! The buffer pool was flushed between queries" — so the pool tracks
//! hit/miss/IO statistics and supports a full flush-and-clear, which the
//! benchmark harness invokes before every query to measure cold-cache
//! behaviour.
//!
//! Pages are pinned while referenced; eviction is LRU over unpinned frames.

use crate::page::{Page, PageId};
use crate::volume::Volume;
use crate::{Result, StorageError};
use paradise_obs::Gauge;
use paradise_util::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cumulative buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that had to read from the volume.
    pub misses: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl BufferStats {
    /// Component-wise delta against an earlier snapshot of the same pool
    /// (saturating, so a `reset_stats` in between degrades to zeros
    /// instead of wrapping).
    pub fn since(&self, base: BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            writebacks: self.writebacks.saturating_sub(base.writebacks),
            evictions: self.evictions.saturating_sub(base.evictions),
        }
    }

    /// Component-wise sum (for aggregating across the pools of a cluster).
    pub fn merge(&self, other: BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            writebacks: self.writebacks + other.writebacks,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Hit rate in percent (100 when there were no requests at all).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            100.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

struct Frame {
    pid: PageId,
    page: RwLock<Page>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    /// LRU timestamp (monotone counter at last unpin/use).
    stamp: AtomicU64,
}

/// A pinned reference to a buffered page. The pin is released on drop;
/// writes go through [`PageGuard::write`], which marks the frame dirty.
pub struct PageGuard {
    frame: Arc<Frame>,
    clock: Arc<AtomicU64>,
}

impl PageGuard {
    /// Page id of the pinned page.
    pub fn pid(&self) -> PageId {
        self.frame.pid
    }

    /// Shared read access to the page.
    pub fn read(&self) -> paradise_util::sync::RwLockReadGuard<'_, Page> {
        self.frame.page.read()
    }

    /// Exclusive write access; marks the page dirty.
    pub fn write(&self) -> paradise_util::sync::RwLockWriteGuard<'_, Page> {
        self.frame.dirty.store(true, Ordering::Release);
        self.frame.page.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.stamp.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An LRU buffer pool over one volume.
pub struct BufferPool {
    vol: Arc<Volume>,
    capacity: usize,
    frames: Mutex<HashMap<PageId, Arc<Frame>>>,
    clock: Arc<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    writebacks: AtomicU64,
    evictions: AtomicU64,
    /// Live frame count, maintained with `add`/`sub` deltas at every
    /// insert/remove (all under the `frames` lock) so snapshots never race
    /// a recompute-then-`set` cycle. Cloned out via [`Self::frames_gauge`]
    /// for registry publication.
    frames_cached: Gauge,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `vol`.
    pub fn new(vol: Arc<Volume>, capacity: usize) -> Self {
        BufferPool {
            vol,
            capacity: capacity.max(1),
            frames: Mutex::new(HashMap::new()),
            clock: Arc::new(AtomicU64::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            frames_cached: Gauge::new(),
        }
    }

    /// The underlying volume.
    pub fn volume(&self) -> &Arc<Volume> {
        &self.vol
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Handle on the live cached-frame gauge (shares the atomic — register
    /// it into a [`paradise_obs::MetricsRegistry`] to publish it).
    pub fn frames_gauge(&self) -> Gauge {
        self.frames_cached.clone()
    }

    fn pin(&self, frame: &Arc<Frame>) -> PageGuard {
        frame.pins.fetch_add(1, Ordering::AcqRel);
        PageGuard { frame: frame.clone(), clock: self.clock.clone() }
    }

    /// Fetches page `pid`, reading it from the volume on a miss.
    pub fn get(&self, pid: PageId) -> Result<PageGuard> {
        let mut frames = self.frames.lock();
        if let Some(f) = frames.get(&pid) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.pin(f));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.make_room(&mut frames)?;
        let page = self.vol.read_page(pid)?;
        let frame = Arc::new(Frame {
            pid,
            page: RwLock::new(page),
            dirty: AtomicBool::new(false),
            pins: AtomicUsize::new(0),
            stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        let guard = self.pin(&frame);
        frames.insert(pid, frame);
        self.frames_cached.add(1);
        Ok(guard)
    }

    /// Registers a brand-new page (already allocated in the volume) without
    /// reading it from disk, e.g. right after `alloc_page`.
    pub fn get_new(&self, pid: PageId) -> Result<PageGuard> {
        let mut frames = self.frames.lock();
        if let Some(f) = frames.get(&pid) {
            // Already cached (recycled extent): reset it.
            let g = self.pin(f);
            *g.write() = Page::new();
            return Ok(g);
        }
        self.make_room(&mut frames)?;
        let frame = Arc::new(Frame {
            pid,
            page: RwLock::new(Page::new()),
            dirty: AtomicBool::new(true),
            pins: AtomicUsize::new(0),
            stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        let guard = self.pin(&frame);
        frames.insert(pid, frame);
        self.frames_cached.add(1);
        Ok(guard)
    }

    /// Evicts the LRU unpinned frame if the pool is full.
    fn make_room(&self, frames: &mut HashMap<PageId, Arc<Frame>>) -> Result<()> {
        while frames.len() >= self.capacity {
            let victim = frames
                .values()
                .filter(|f| f.pins.load(Ordering::Acquire) == 0)
                .min_by_key(|f| f.stamp.load(Ordering::Relaxed))
                .map(|f| f.pid);
            let Some(pid) = victim else {
                return Err(StorageError::PoolExhausted);
            };
            let frame = frames.remove(&pid).expect("victim present");
            self.frames_cached.sub(1);
            if frame.dirty.load(Ordering::Acquire) {
                self.vol.write_page(pid, &frame.page.read())?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes back every dirty page, keeping the cache warm.
    pub fn flush_all(&self) -> Result<()> {
        let frames = self.frames.lock();
        for (pid, frame) in frames.iter() {
            if frame.dirty.swap(false, Ordering::AcqRel) {
                self.vol.write_page(*pid, &frame.page.read())?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The dirty pages currently cached (pid + image), for WAL commits.
    pub fn dirty_pages(&self) -> Vec<(PageId, Page)> {
        let frames = self.frames.lock();
        frames
            .iter()
            .filter(|(_, f)| f.dirty.load(Ordering::Acquire))
            .map(|(pid, f)| (*pid, f.page.read().clone()))
            .collect()
    }

    /// Flushes all dirty pages and drops every unpinned frame — the
    /// "buffer pool flushed between queries" knob of the benchmark.
    pub fn flush_and_clear(&self) -> Result<()> {
        let mut frames = self.frames.lock();
        let before = frames.len() as u64;
        let mut kept = HashMap::new();
        for (pid, frame) in frames.drain() {
            if frame.dirty.swap(false, Ordering::AcqRel) {
                self.vol.write_page(pid, &frame.page.read())?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            if frame.pins.load(Ordering::Acquire) > 0 {
                kept.insert(pid, frame);
            }
        }
        self.frames_cached.sub(before - kept.len() as u64);
        *frames = kept;
        Ok(())
    }

    /// Drops cached frames for `pids` without writing them back — used when
    /// their extents are freed: a freed extent's first page holds the
    /// volume free-list link, and flushing a stale dirty frame over it
    /// would corrupt the allocator.
    pub fn discard_pages(&self, pids: impl IntoIterator<Item = PageId>) {
        let mut frames = self.frames.lock();
        for pid in pids {
            if let Some(f) = frames.get(&pid) {
                if f.pins.load(Ordering::Acquire) == 0 {
                    frames.remove(&pid);
                    self.frames_cached.sub(1);
                }
            }
        }
    }

    /// Snapshot of the statistics.
    ///
    /// Every counter mutation happens while the `frames` mutex is held
    /// (`get`/`make_room`/`flush_*` all update under it), so taking the
    /// same lock here yields an internally *consistent* snapshot: a
    /// concurrent `get` can never be half-counted (hit recorded, miss
    /// missing) between the individual loads.
    pub fn stats(&self) -> BufferStats {
        let _frames = self.frames.lock();
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets the statistics (between benchmark queries). Holds the
    /// `frames` lock so the reset is atomic with respect to in-flight
    /// requests — no increment lands between clearing `hits` and
    /// clearing `misses`.
    pub fn reset_stats(&self) {
        let _frames = self.frames.lock();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize, name: &str) -> (BufferPool, Arc<Volume>) {
        let dir = std::env::temp_dir().join(format!("paradise-buf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join(name)).unwrap());
        (BufferPool::new(vol.clone(), cap), vol)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let (pool, vol) = pool(4, "a.vol");
        let pid = vol.alloc_extent().unwrap();
        {
            let g = pool.get_new(pid).unwrap();
            g.write().insert(b"x").unwrap();
        }
        let _ = pool.get(pid).unwrap();
        let _ = pool.get(pid).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, vol) = pool(2, "b.vol");
        let e = vol.alloc_extent().unwrap();
        // Dirty page e, then touch enough other pages to evict it.
        {
            let g = pool.get_new(e).unwrap();
            g.write().insert(b"dirty data").unwrap();
        }
        for i in 1..4 {
            let _ = pool.get_new(e + i).unwrap();
        }
        assert!(pool.stats().evictions >= 1);
        // Reading it back must see the data (written back on eviction).
        let g = pool.get(e).unwrap();
        assert_eq!(g.read().get(0).unwrap(), b"dirty data");
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (pool, vol) = pool(2, "c.vol");
        let e = vol.alloc_extent().unwrap();
        let g0 = pool.get_new(e).unwrap();
        let g1 = pool.get_new(e + 1).unwrap();
        // Pool full of pinned pages: next fetch must fail, not evict.
        assert!(matches!(pool.get_new(e + 2), Err(StorageError::PoolExhausted)));
        drop(g0);
        drop(g1);
        assert!(pool.get_new(e + 2).is_ok());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (pool, vol) = pool(2, "d.vol");
        let e = vol.alloc_extent().unwrap();
        {
            let a = pool.get_new(e).unwrap();
            a.write().insert(b"a").unwrap();
        }
        {
            let b = pool.get_new(e + 1).unwrap();
            b.write().insert(b"b").unwrap();
        }
        // Touch a again so b is LRU.
        let _ = pool.get(e).unwrap();
        let _ = pool.get_new(e + 2).unwrap(); // evicts b
        pool.reset_stats();
        let _ = pool.get(e).unwrap();
        assert_eq!(pool.stats().hits, 1, "page a should still be cached");
        let _ = pool.get(e + 1).unwrap();
        assert_eq!(pool.stats().misses, 1, "page b should have been evicted");
    }

    #[test]
    fn flush_and_clear_cools_the_cache() {
        let (pool, vol) = pool(8, "e.vol");
        let e = vol.alloc_extent().unwrap();
        {
            let g = pool.get_new(e).unwrap();
            g.write().insert(b"cold").unwrap();
        }
        pool.flush_and_clear().unwrap();
        pool.reset_stats();
        let g = pool.get(e).unwrap();
        assert_eq!(g.read().get(0).unwrap(), b"cold");
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
    }

    /// Snapshots taken while a query is hammering the pool must be
    /// internally consistent and lose no update: `stats` holds the frames
    /// lock, so a snapshot never lands between two counters' increments,
    /// successive snapshots never go backwards, and the last one counts
    /// every request.
    #[test]
    fn stats_snapshots_are_coherent_under_concurrency() {
        let (pool, vol) = pool(16, "g.vol");
        let e = vol.alloc_extent().unwrap();
        {
            let g = pool.get_new(e).unwrap();
            g.write().insert(b"hot").unwrap();
        }
        pool.reset_stats();
        let pool = Arc::new(pool);
        const THREADS: usize = 4;
        const GETS: u64 = 2000;
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let p = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..GETS {
                        let _ = p.get(e).unwrap();
                    }
                })
            })
            .collect();
        // Snapshot concurrently the whole time the workers run.
        let mut last = 0;
        while workers.iter().any(|w| !w.is_finished()) {
            let s = pool.stats();
            assert!(s.hits + s.misses >= last, "snapshot went backwards: {s:?}");
            last = s.hits + s.misses;
        }
        for w in workers {
            w.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, THREADS as u64 * GETS, "snapshot lost updates: {s:?}");
    }

    #[test]
    fn frames_gauge_tracks_cache_population() {
        let (pool, vol) = pool(2, "h.vol");
        let e = vol.alloc_extent().unwrap();
        // The registered handle shares the pool's atomic.
        let g = pool.frames_gauge();
        assert_eq!(g.get(), 0);
        let _ = pool.get_new(e).unwrap();
        let _ = pool.get_new(e + 1).unwrap();
        assert_eq!(g.get(), 2);
        // Eviction decrements.
        let _ = pool.get_new(e + 2).unwrap();
        assert_eq!(g.get(), 2);
        // Clearing drops unpinned frames and the gauge follows.
        pool.flush_and_clear().unwrap();
        assert_eq!(g.get(), 0);
        let _ = pool.get(e).unwrap();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn concurrent_readers() {
        let (pool, vol) = pool(16, "f.vol");
        let e = vol.alloc_extent().unwrap();
        {
            let g = pool.get_new(e).unwrap();
            g.write().insert(b"shared").unwrap();
        }
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let g = p.get(e).unwrap();
                    assert_eq!(g.read().get(0).unwrap(), b"shared");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
