//! The per-disk storage manager facade.
//!
//! A [`Store`] bundles one volume, its buffer pool, its write-ahead log and
//! a small persistent directory of named heap files, B+-trees and R*-trees.
//! Every simulated Paradise node owns one `Store` per disk (paper §3.2: four
//! database disks per node).
//!
//! An R*-tree is persisted as one serialized blob in a heap file of its
//! own ([`Store::put_rtree`]). [`Store::rtree`] decodes that blob on first
//! use and then hands out O(1) handles to the decoded tree until the entry
//! is replaced or dropped, the cache is flushed or the store is reopened.

use crate::btree::{BTree, BTreeMeta};
use crate::buffer::BufferPool;
use crate::heap::{HeapFile, HeapMeta};
use crate::page::{PageId, SlotId};
use crate::rtree::RTree;
use crate::volume::Volume;
use crate::wal::Wal;
use crate::{Result, StorageError};
use paradise_util::sync::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Object identifier: (page, slot) within a store's volume — SHORE's OID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    /// Page holding the object (or its LOB redirect).
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Oid {
    /// Packs the OID into 10 bytes for embedding in tuples.
    pub fn to_bytes(self) -> [u8; 10] {
        let mut b = [0u8; 10];
        b[0..8].copy_from_slice(&self.page.to_le_bytes());
        b[8..10].copy_from_slice(&self.slot.to_le_bytes());
        b
    }

    /// Unpacks an OID produced by [`Oid::to_bytes`].
    pub fn from_bytes(b: &[u8]) -> Option<Oid> {
        if b.len() < 10 {
            return None;
        }
        Some(Oid {
            page: u64::from_le_bytes(b[0..8].try_into().ok()?),
            slot: u16::from_le_bytes(b[8..10].try_into().ok()?),
        })
    }
}

enum Entry {
    Heap(Arc<HeapFile>),
    BTree(Arc<BTree>),
}

/// One disk's storage manager: volume + buffer pool + WAL + directory.
pub struct Store {
    vol: Arc<Volume>,
    pool: Arc<BufferPool>,
    wal: Wal,
    dir_page: PageId,
    entries: Mutex<HashMap<String, Entry>>,
    /// Decoded R*-trees by file name, filled lazily by [`Store::rtree`].
    /// Lock order: `rtrees` before `entries`.
    rtrees: Mutex<HashMap<String, RTree>>,
    /// Blobs decoded by [`Store::rtree`] (cache misses).
    rtree_decodes: AtomicU64,
}

impl Store {
    /// Creates a fresh store: `<base>.vol` and `<base>.wal`.
    pub fn create<P: AsRef<Path>>(base: P, pool_pages: usize) -> Result<Self> {
        let base = base.as_ref();
        let vol = Arc::new(Volume::create(with_ext(base, "vol"))?);
        let pool = Arc::new(BufferPool::new(vol.clone(), pool_pages));
        let wal = Wal::open(with_ext(base, "wal"))?;
        let dir_page = vol.alloc_extent()?; // first extent, first page
        {
            let g = pool.get_new(dir_page)?;
            g.write().insert(&encode_dir(&[])?)?;
        }
        let store = Store {
            vol,
            pool,
            wal,
            dir_page,
            entries: Mutex::new(HashMap::new()),
            rtrees: Mutex::default(),
            rtree_decodes: AtomicU64::new(0),
        };
        store.commit()?;
        Ok(store)
    }

    /// Opens an existing store, replaying any committed WAL tail first.
    pub fn open<P: AsRef<Path>>(base: P, pool_pages: usize) -> Result<Self> {
        let base = base.as_ref();
        let vol = Arc::new(Volume::open(with_ext(base, "vol"))?);
        let wal = Wal::open(with_ext(base, "wal"))?;
        wal.replay(&vol)?;
        wal.truncate()?;
        let pool = Arc::new(BufferPool::new(vol.clone(), pool_pages));
        let dir_page: PageId = 1; // first page of the first extent
        let mut entries = HashMap::new();
        {
            let g = pool.get(dir_page)?;
            let page = g.read();
            let raw = page.get(0).map_err(|_| StorageError::Corrupt("missing directory"))?;
            for (name, meta) in decode_dir(raw)? {
                let e = match meta {
                    DirMeta::Heap(m) => Entry::Heap(Arc::new(HeapFile::from_meta(pool.clone(), m))),
                    DirMeta::BTree(m) => Entry::BTree(Arc::new(BTree::from_meta(pool.clone(), m))),
                };
                entries.insert(name, e);
            }
        }
        Ok(Store {
            vol,
            pool,
            wal,
            dir_page,
            entries: Mutex::new(entries),
            rtrees: Mutex::default(),
            rtree_decodes: AtomicU64::new(0),
        })
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The volume.
    pub fn volume(&self) -> &Arc<Volume> {
        &self.vol
    }

    /// WAL activity counters (for the metrics registry).
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.stats()
    }

    /// Creates (or returns the existing) named heap file.
    pub fn create_file(&self, name: &str) -> Result<Arc<HeapFile>> {
        let mut entries = self.entries.lock();
        if let Some(Entry::Heap(f)) = entries.get(name) {
            return Ok(f.clone());
        }
        let f = Arc::new(HeapFile::create(self.pool.clone())?);
        entries.insert(name.to_string(), Entry::Heap(f.clone()));
        Ok(f)
    }

    /// Looks up a named heap file.
    pub fn file(&self, name: &str) -> Option<Arc<HeapFile>> {
        match self.entries.lock().get(name) {
            Some(Entry::Heap(f)) => Some(f.clone()),
            _ => None,
        }
    }

    /// Reads the object at `oid`, whichever heap file holds it: a raster
    /// tile is found by its object id alone.
    pub fn read(&self, oid: Oid) -> Result<Vec<u8>> {
        crate::heap::read(&self.pool, oid)
    }

    /// Creates (or returns the existing) named B+-tree.
    pub fn create_btree(&self, name: &str) -> Result<Arc<BTree>> {
        let mut entries = self.entries.lock();
        if let Some(Entry::BTree(t)) = entries.get(name) {
            return Ok(t.clone());
        }
        let t = Arc::new(BTree::create(self.pool.clone())?);
        entries.insert(name.to_string(), Entry::BTree(t.clone()));
        Ok(t)
    }

    /// Looks up a named B+-tree.
    pub fn btree(&self, name: &str) -> Option<Arc<BTree>> {
        match self.entries.lock().get(name) {
            Some(Entry::BTree(t)) => Some(t.clone()),
            _ => None,
        }
    }

    /// Persists `tree` as the R*-tree named `name`, replacing any existing
    /// entry of that name: the old file is dropped, a new one created and
    /// the serialized tree written to it as one blob.
    pub fn put_rtree(&self, name: &str, tree: &RTree) -> Result<()> {
        let mut rtrees = self.rtrees.lock();
        rtrees.remove(name);
        self.drop_file(name)?;
        self.create_file(name)?.insert(&tree.to_bytes())?;
        Ok(())
    }

    /// A handle to the R*-tree named `name`, or `None` if there is no such
    /// file. The blob is read and decoded only on the first call after the
    /// store was opened, [`Store::flush_cache`] ran or the entry was
    /// replaced ([`Store::put_rtree`]) or dropped ([`Store::drop_entry`]);
    /// later calls clone the decoded tree in O(1).
    pub fn rtree(&self, name: &str) -> Result<Option<RTree>> {
        let mut rtrees = self.rtrees.lock();
        if let Some(tree) = rtrees.get(name) {
            return Ok(Some(tree.clone()));
        }
        let Some(file) = self.file(name) else {
            return Ok(None);
        };
        let rows = file.scan()?;
        let (_, blob) = rows.first().ok_or(StorageError::Corrupt("empty rtree file"))?;
        let tree = RTree::from_bytes(blob)?;
        self.rtree_decodes.fetch_add(1, Ordering::Relaxed);
        rtrees.insert(name.to_string(), tree.clone());
        Ok(Some(tree))
    }

    /// How many R*-tree blobs [`Store::rtree`] has decoded (for the
    /// metrics registry).
    pub fn rtree_decodes(&self) -> u64 {
        self.rtree_decodes.load(Ordering::Relaxed)
    }

    /// Drops a named file or index, returning its extents to the volume —
    /// how temporary tables and their LOB files disappear (§2.5.2).
    ///
    /// Cached pages of the freed extents are discarded first (not written
    /// back): a stale dirty frame flushed later would overwrite the free
    /// list link the volume threads through each freed extent's first page.
    pub fn drop_entry(&self, name: &str) -> Result<()> {
        let mut rtrees = self.rtrees.lock();
        rtrees.remove(name);
        self.drop_file(name)
    }

    /// [`Store::drop_entry`] without touching the decoded R*-trees; callers
    /// hold the `rtrees` lock.
    fn drop_file(&self, name: &str) -> Result<()> {
        let e = self.entries.lock().remove(name);
        let extents = match &e {
            Some(Entry::Heap(f)) => f.meta().extents,
            Some(Entry::BTree(t)) => t.meta().extents,
            None => Vec::new(),
        };
        self.pool.discard_pages(
            extents.iter().flat_map(|&first| first..first + crate::volume::EXTENT_PAGES),
        );
        match e {
            Some(Entry::Heap(f)) => f.free(),
            Some(Entry::BTree(t)) => t.free(),
            None => Ok(()),
        }
    }

    /// Names of all directory entries.
    pub fn names(&self) -> Vec<String> {
        self.entries.lock().keys().cloned().collect()
    }

    fn write_directory(&self) -> Result<()> {
        let entries = self.entries.lock();
        let mut list: Vec<(String, DirMeta)> = entries
            .iter()
            .map(|(n, e)| {
                let m = match e {
                    Entry::Heap(f) => DirMeta::Heap(f.meta()),
                    Entry::BTree(t) => DirMeta::BTree(t.meta()),
                };
                (n.clone(), m)
            })
            .collect();
        list.sort_by(|a, b| a.0.cmp(&b.0));
        let raw = encode_dir(&list)?;
        let g = self.pool.get(self.dir_page)?;
        let res = g.write().update(0, &raw);
        res.map_err(|_| StorageError::Corrupt("directory page overflow (too many files per store)"))
    }

    /// Durably commits all work: directory + dirty pages go through the WAL
    /// (commit point), then to the volume; the WAL is then truncated.
    pub fn commit(&self) -> Result<()> {
        self.write_directory()?;
        let dirty = self.pool.dirty_pages();
        let refs: Vec<(PageId, &[u8; crate::page::PAGE_SIZE])> =
            dirty.iter().map(|(pid, p)| (*pid, p.bytes())).collect();
        self.wal.log_commit(&refs)?;
        self.pool.flush_all()?;
        self.vol.sync()?;
        self.wal.truncate()
    }

    /// Flushes and empties the buffer pool and forgets every decoded
    /// R*-tree (the benchmark's between-query cache flush): the next
    /// [`Store::rtree`] reads and decodes its blob again.
    pub fn flush_cache(&self) -> Result<()> {
        self.rtrees.lock().clear();
        self.pool.flush_and_clear()
    }
}

enum DirMeta {
    Heap(HeapMeta),
    BTree(BTreeMeta),
}

fn with_ext(base: &Path, ext: &str) -> std::path::PathBuf {
    let mut p = base.to_path_buf().into_os_string();
    p.push(".");
    p.push(ext);
    std::path::PathBuf::from(p)
}

fn encode_dir(entries: &[(String, DirMeta)]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, meta) in entries {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        match meta {
            DirMeta::Heap(m) => {
                out.push(0);
                out.extend_from_slice(&m.first.to_le_bytes());
                out.extend_from_slice(&m.last.to_le_bytes());
                out.extend_from_slice(&m.count.to_le_bytes());
                out.extend_from_slice(&(m.extents.len() as u32).to_le_bytes());
                for e in &m.extents {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            }
            DirMeta::BTree(m) => {
                out.push(1);
                out.extend_from_slice(&m.root.to_le_bytes());
                out.extend_from_slice(&(m.extents.len() as u32).to_le_bytes());
                for e in &m.extents {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
    }
    Ok(out)
}

fn decode_dir(raw: &[u8]) -> Result<Vec<(String, DirMeta)>> {
    let corrupt = || StorageError::Corrupt("bad directory encoding");
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > raw.len() {
            return Err(corrupt());
        }
        let s = &raw[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).map_err(|_| corrupt())?;
        let kind = take(&mut pos, 1)?[0];
        let meta = match kind {
            0 => {
                let first = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                let last = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                let ne = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                let mut extents = Vec::with_capacity(ne);
                for _ in 0..ne {
                    extents.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
                }
                DirMeta::Heap(HeapMeta { first, last, count, extents })
            }
            1 => {
                let root = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                let ne = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                let mut extents = Vec::with_capacity(ne);
                for _ in 0..ne {
                    extents.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
                }
                DirMeta::BTree(BTreeMeta { root, extents })
            }
            _ => return Err(corrupt()),
        };
        out.push((name, meta));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("paradise-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn oid_bytes_roundtrip() {
        let oid = Oid { page: 0x1234_5678_9ABC, slot: 77 };
        assert_eq!(Oid::from_bytes(&oid.to_bytes()), Some(oid));
        assert_eq!(Oid::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn create_insert_commit_reopen() {
        let b = base("s1");
        let oid = {
            let store = Store::create(&b, 64).unwrap();
            let f = store.create_file("cities").unwrap();
            let oid = f.insert(b"madison").unwrap();
            store.commit().unwrap();
            oid
        };
        let store = Store::open(&b, 64).unwrap();
        let f = store.file("cities").expect("file survives reopen");
        assert_eq!(f.read(oid).unwrap(), b"madison");
        assert!(store.file("missing").is_none());
    }

    #[test]
    fn uncommitted_work_lost_on_reopen() {
        let b = base("s2");
        {
            let store = Store::create(&b, 64).unwrap();
            store.create_file("t").unwrap();
            store.commit().unwrap();
            let f = store.file("t").unwrap();
            f.insert(b"never committed").unwrap();
            // no commit; pool dropped without flush
        }
        let store = Store::open(&b, 64).unwrap();
        let f = store.file("t").unwrap();
        assert_eq!(f.scan().unwrap().len(), 0);
    }

    #[test]
    fn wal_recovers_committed_pages() {
        let b = base("s3");
        // Commit writes the WAL first; simulate a crash after WAL sync but
        // before the volume write by replaying the intact WAL manually.
        let store = Store::create(&b, 64).unwrap();
        let f = store.create_file("t").unwrap();
        f.insert(b"durable").unwrap();
        // Manually do the WAL half of commit only.
        store.write_directory().unwrap();
        let dirty = store.pool.dirty_pages();
        let refs: Vec<_> = dirty.iter().map(|(p, pg)| (*p, pg.bytes())).collect();
        store.wal.log_commit(&refs).unwrap();
        drop(store); // volume never saw the pages
        let store = Store::open(&b, 64).unwrap();
        let f = store.file("t").expect("directory recovered from WAL");
        let rows = f.scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, b"durable");
    }

    #[test]
    fn drop_entry_frees_space() {
        let b = base("s4");
        let store = Store::create(&b, 64).unwrap();
        let f = store.create_file("temp").unwrap();
        for _ in 0..100 {
            f.insert(&[0u8; 1000]).unwrap();
        }
        store.commit().unwrap();
        let pages_before = store.volume().num_pages();
        store.drop_entry("temp").unwrap();
        store.commit().unwrap();
        // Extents are recycled: creating a new file must not grow the volume.
        let f2 = store.create_file("next").unwrap();
        for _ in 0..100 {
            f2.insert(&[0u8; 1000]).unwrap();
        }
        store.commit().unwrap();
        assert_eq!(store.volume().num_pages(), pages_before);
    }

    #[test]
    fn multiple_files_coexist() {
        let b = base("s5");
        let store = Store::create(&b, 128).unwrap();
        let a = store.create_file("a").unwrap();
        let c = store.create_file("c").unwrap();
        let oa = a.insert(b"in a").unwrap();
        let oc = c.insert(b"in c").unwrap();
        store.commit().unwrap();
        assert_eq!(a.read(oa).unwrap(), b"in a");
        assert_eq!(c.read(oc).unwrap(), b"in c");
        let mut names = store.names();
        names.sort();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn read_finds_an_object_by_oid_alone() {
        let store = Store::create(base("s10"), 64).unwrap();
        let small = store.create_file("a").unwrap().insert(b"in a").unwrap();
        let big = vec![5u8; 20_000];
        let lob = store.create_file("b").unwrap().insert(&big).unwrap();
        assert_eq!(store.read(small).unwrap(), b"in a");
        assert_eq!(store.read(lob).unwrap(), big, "a LOB is followed to its chain");
    }

    #[test]
    fn drop_with_dirty_cache_does_not_corrupt_free_list() {
        // Regression: dirty pages of a dropped file must not be flushed
        // over the freed extents' free-list links.
        let b = base("s7");
        let store = Store::create(&b, 256).unwrap();
        let f = store.create_file("victim").unwrap();
        for _ in 0..200 {
            f.insert(&[7u8; 3000]).unwrap(); // several extents, all dirty
        }
        // Drop WITHOUT committing: pages are still dirty in the pool.
        store.drop_entry("victim").unwrap();
        // Commit flushes whatever is left dirty; the freed extents' link
        // pages must survive.
        store.commit().unwrap();
        // Drain the free list: every recycled extent must be a valid page.
        let g = store.create_file("next").unwrap();
        for _ in 0..400 {
            g.insert(&[9u8; 3000]).unwrap();
        }
        store.commit().unwrap();
        assert_eq!(g.scan().unwrap().len(), 400);
    }

    #[test]
    fn btree_survives_reopen() {
        let b = base("s6");
        {
            let store = Store::create(&b, 64).unwrap();
            let t = store.create_btree("idx").unwrap();
            t.insert(b"key1", 11).unwrap();
            t.insert(b"key2", 22).unwrap();
            store.commit().unwrap();
        }
        let store = Store::open(&b, 64).unwrap();
        let t = store.btree("idx").unwrap();
        assert_eq!(t.get(b"key1").unwrap(), Some(11));
        assert_eq!(t.get(b"key2").unwrap(), Some(22));
    }

    fn rtree_of(n: usize) -> RTree {
        use paradise_geom::{Point, Rect};
        let entries = (0..n)
            .map(|i| {
                let p = Point::new(i as f64, i as f64);
                (Rect::from_corners(p, p).unwrap(), i as u64)
            })
            .collect();
        RTree::bulk_load(entries)
    }

    #[test]
    fn put_rtree_replaces_and_rtree_decodes_once() {
        let store = Store::create(base("s8"), 64).unwrap();
        assert!(store.rtree("rt").unwrap().is_none());
        store.put_rtree("rt", &rtree_of(10)).unwrap();
        assert_eq!(store.rtree_decodes(), 0, "filled lazily, not at build time");
        assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 10);
        assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 10);
        assert_eq!(store.rtree_decodes(), 1);
        // A rebuild replaces the file and the decoded tree.
        store.put_rtree("rt", &rtree_of(60)).unwrap();
        assert_eq!(store.file("rt").unwrap().count(), 1, "one blob per index file");
        assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 60);
        assert_eq!(store.rtree_decodes(), 2);
        // A cache flush forgets the decoded tree.
        store.flush_cache().unwrap();
        assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 60);
        assert_eq!(store.rtree_decodes(), 3);
        // So does a drop.
        store.drop_entry("rt").unwrap();
        assert!(store.rtree("rt").unwrap().is_none());
        assert!(store.names().is_empty());
    }

    #[test]
    fn rtree_survives_reopen() {
        let b = base("s9");
        {
            let store = Store::create(&b, 64).unwrap();
            store.put_rtree("rt", &rtree_of(25)).unwrap();
            store.commit().unwrap();
            assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 25);
        }
        let store = Store::open(&b, 64).unwrap();
        assert_eq!(store.rtree_decodes(), 0);
        assert_eq!(store.rtree("rt").unwrap().unwrap().len(), 25);
        assert_eq!(store.rtree_decodes(), 1);
    }
}
