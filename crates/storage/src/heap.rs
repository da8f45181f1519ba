//! Files of untyped objects (SHORE-style heap files).
//!
//! A heap file is a chain of slotted pages. Objects small enough to fit on
//! a page are stored inline; larger ones spill automatically into a LOB
//! chain with a small redirect record left in the heap page, so callers see
//! a uniform "file of arbitrarily-sized objects" exactly as SHORE presents
//! (paper §2.2).

use crate::buffer::BufferPool;
use crate::lob;
use crate::page::{Page, PageId, SlotId, NO_PAGE, PAGE_SIZE};
use crate::store::Oid;
use crate::volume::ExtentAllocator;
use crate::{Result, StorageError};
use paradise_util::sync::Mutex;
use std::sync::Arc;

const TAG_INLINE: u8 = 0;
const TAG_LOB: u8 = 1;
/// Largest record stored inline (tag byte + payload + slot entry on a page).
pub const MAX_INLINE: usize = PAGE_SIZE - 16 - 4 - 1;

struct Chain {
    first: PageId,
    last: PageId,
    count: u64,
}

/// A heap file of untyped objects addressed by [`Oid`].
pub struct HeapFile {
    pool: Arc<BufferPool>,
    alloc: ExtentAllocator,
    chain: Mutex<Chain>,
}

/// Persistable description of a heap file (kept in the store directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapMeta {
    /// First page of the chain.
    pub first: PageId,
    /// Last page of the chain.
    pub last: PageId,
    /// Number of live objects.
    pub count: u64,
    /// Extents owned by the file (records and LOB spill pages).
    pub extents: Vec<PageId>,
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let alloc = ExtentAllocator::new(pool.volume().clone());
        let first = alloc.alloc_page()?;
        let _ = pool.get_new(first)?; // initialize empty page
        Ok(HeapFile { pool, alloc, chain: Mutex::new(Chain { first, last: first, count: 0 }) })
    }

    /// Reopens a heap file from its persisted metadata.
    pub fn from_meta(pool: Arc<BufferPool>, meta: HeapMeta) -> Self {
        let alloc = ExtentAllocator::from_extents(pool.volume().clone(), meta.extents);
        HeapFile {
            pool,
            alloc,
            chain: Mutex::new(Chain { first: meta.first, last: meta.last, count: meta.count }),
        }
    }

    /// Metadata snapshot for persistence.
    pub fn meta(&self) -> HeapMeta {
        let c = self.chain.lock();
        HeapMeta { first: c.first, last: c.last, count: c.count, extents: self.alloc.extents() }
    }

    /// First page of the chain.
    pub fn first_page(&self) -> PageId {
        self.chain.lock().first
    }

    /// Number of live objects.
    pub fn count(&self) -> u64 {
        self.chain.lock().count
    }

    /// The buffer pool this file lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Inserts an object, returning its OID. Objects larger than
    /// [`MAX_INLINE`] spill to a LOB chain transparently.
    pub fn insert(&self, obj: &[u8]) -> Result<Oid> {
        let mut rec = Vec::with_capacity(obj.len().min(MAX_INLINE) + 17);
        if obj.len() <= MAX_INLINE {
            rec.push(TAG_INLINE);
            rec.extend_from_slice(obj);
        } else {
            let first = lob::write_lob(&self.pool, &self.alloc, obj)?;
            rec.push(TAG_LOB);
            rec.extend_from_slice(&first.to_le_bytes());
            rec.extend_from_slice(&(obj.len() as u64).to_le_bytes());
        }
        let mut chain = self.chain.lock();
        let last = chain.last;
        {
            let g = self.pool.get(last)?;
            let mut page = g.write();
            if page.fits(rec.len()) {
                let slot = page.insert(&rec)?;
                chain.count += 1;
                return Ok(Oid { page: last, slot });
            }
        }
        // Grow the chain.
        let new_pid = self.alloc.alloc_page()?;
        {
            let g = self.pool.get(last)?;
            g.write().set_next_page(new_pid);
        }
        let g = self.pool.get_new(new_pid)?;
        let slot = g.write().insert(&rec)?;
        chain.last = new_pid;
        chain.count += 1;
        Ok(Oid { page: new_pid, slot })
    }

    /// Reads the object at `oid`: an inline object is copied once, under
    /// the page latch; a LOB is read after the latch is released.
    pub fn read(&self, oid: Oid) -> Result<Vec<u8>> {
        read(&self.pool, oid)
    }

    /// Calls `f(oid, object)` for every live object, in chain order, lending
    /// each object's bytes.
    ///
    /// Each page's live records are copied once, under the page latch, into
    /// a buffer reused across pages; the latch is released before the first
    /// callback, so `f` may read other pages of this file or of any other
    /// (raster tiles, LOBs) without deadlocking. Inline objects are lent
    /// from that buffer; a LOB is read into its own buffer first.
    pub fn for_each<E, F>(&self, mut f: F) -> std::result::Result<(), E>
    where
        E: From<StorageError>,
        F: FnMut(Oid, &[u8]) -> std::result::Result<(), E>,
    {
        let mut records = Vec::with_capacity(PAGE_SIZE);
        // (slot, end of its record in `records`) for the current page.
        let mut slots: Vec<(SlotId, usize)> = Vec::new();
        let mut pid = self.first_page();
        while pid != NO_PAGE {
            records.clear();
            slots.clear();
            let next = {
                let g = self.pool.get(pid)?;
                let page = g.read();
                for slot in page.live_slots() {
                    records.extend_from_slice(page.get(slot).expect("live slot"));
                    slots.push((slot, records.len()));
                }
                page.next_page()
            };
            let mut start = 0;
            for &(slot, end) in &slots {
                let oid = Oid { page: pid, slot };
                match body(&records[start..end], oid)? {
                    Body::Inline(obj) => f(oid, obj)?,
                    Body::Lob(first) => f(oid, &lob::read_lob(&self.pool, first)?)?,
                }
                start = end;
            }
            pid = next;
        }
        Ok(())
    }

    /// All live objects (materialised; use [`HeapFile::for_each`] to stream).
    pub fn scan(&self) -> Result<Vec<(Oid, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each(|oid, obj| -> Result<()> {
            out.push((oid, obj.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    /// Frees every extent owned by the file (records and LOBs).
    pub fn free(&self) -> Result<()> {
        self.alloc.free_all()
    }

    /// The file's extent allocator (shared for operator-scoped LOBs).
    pub fn allocator(&self) -> &ExtentAllocator {
        &self.alloc
    }
}

/// Reads the object at `oid` through `pool` ([`HeapFile::read`]): the page
/// and slot find it, whichever file owns them.
pub(crate) fn read(pool: &BufferPool, oid: Oid) -> Result<Vec<u8>> {
    let first = {
        let g = pool.get(oid.page)?;
        let page = g.read();
        match body(page_record(&page, oid)?, oid)? {
            Body::Inline(obj) => return Ok(obj.to_vec()),
            Body::Lob(first) => first,
        }
    };
    lob::read_lob(pool, first)
}

/// Where a heap record keeps its object.
enum Body<'r> {
    /// The object itself, inline in the record.
    Inline(&'r [u8]),
    /// First page of the LOB chain the object spilled into.
    Lob(PageId),
}

fn body(rec: &[u8], oid: Oid) -> Result<Body<'_>> {
    match rec.first() {
        Some(&TAG_INLINE) => Ok(Body::Inline(&rec[1..])),
        Some(&TAG_LOB) => {
            if rec.len() != 17 {
                return Err(StorageError::Corrupt("bad LOB redirect"));
            }
            Ok(Body::Lob(u64::from_le_bytes(rec[1..9].try_into().unwrap())))
        }
        _ => Err(StorageError::BadSlot { page: oid.page, slot: oid.slot }),
    }
}

fn page_record(page: &Page, oid: Oid) -> Result<&[u8]> {
    page.get(oid.slot).map_err(|_| StorageError::BadSlot { page: oid.page, slot: oid.slot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Volume;

    fn file(name: &str) -> HeapFile {
        let dir = std::env::temp_dir().join(format!("paradise-heap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join(name)).unwrap());
        let pool = Arc::new(BufferPool::new(vol, 128));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_read_roundtrip() {
        let f = file("a.vol");
        let oid = f.insert(b"record one").unwrap();
        assert_eq!(f.read(oid).unwrap(), b"record one");
        assert_eq!(f.count(), 1);
    }

    #[test]
    fn many_records_span_pages() {
        let f = file("b.vol");
        let rec = vec![3u8; 1000];
        let oids: Vec<_> = (0..50).map(|_| f.insert(&rec).unwrap()).collect();
        // 1000-byte records, ~8 per page => several pages
        let distinct_pages: std::collections::HashSet<_> = oids.iter().map(|o| o.page).collect();
        assert!(distinct_pages.len() > 3);
        for oid in &oids {
            assert_eq!(f.read(*oid).unwrap(), rec);
        }
        assert_eq!(f.count(), 50);
    }

    #[test]
    fn large_object_spills_to_lob() {
        let f = file("c.vol");
        let big: Vec<u8> = (0..100_000).map(|i| (i % 253) as u8).collect();
        let oid = f.insert(&big).unwrap();
        assert_eq!(f.read(oid).unwrap(), big);
    }

    #[test]
    fn scan_preserves_insertion_order_within_chain() {
        let f = file("f.vol");
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes()).unwrap();
        }
        let scanned = f.scan().unwrap();
        assert_eq!(scanned.len(), 100);
        for (i, (_, obj)) in scanned.iter().enumerate() {
            assert_eq!(u32::from_le_bytes(obj[..4].try_into().unwrap()), i as u32);
        }
    }

    #[test]
    fn mixed_inline_and_lob_scan() {
        let f = file("g.vol");
        f.insert(b"small").unwrap();
        let big = vec![7u8; 50_000];
        f.insert(&big).unwrap();
        f.insert(b"small2").unwrap();
        let scanned = f.scan().unwrap();
        assert_eq!(scanned.len(), 3);
        assert_eq!(scanned[0].1, b"small");
        assert_eq!(scanned[1].1.len(), 50_000);
        assert_eq!(scanned[2].1, b"small2");
    }

    #[test]
    fn for_each_callback_may_read_and_write_other_pages() {
        // A 4-frame pool forces evictions while the callback reads pages.
        let dir = std::env::temp_dir().join(format!("paradise-heap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join("j.vol")).unwrap());
        let pool = Arc::new(BufferPool::new(vol, 4));
        let f = HeapFile::create(pool.clone()).unwrap();
        let other = HeapFile::create(pool).unwrap();
        let tile = other.insert(&[9u8; 3000]).unwrap();
        let oids: Vec<Oid> = (0..40u8).map(|i| f.insert(&[i; 1000]).unwrap()).collect();
        let last_page = oids.last().unwrap().page;
        let big: Vec<u8> = (0..30_000).map(|i| (i % 251) as u8).collect();
        let lob = f.insert(&big).unwrap();
        let mut seen = 0;
        let mut inserted = false;
        f.for_each(|oid, obj| -> Result<()> {
            if oid == lob {
                assert_eq!(obj, &big[..], "LOB-spilled record arrives intact");
            } else {
                let i = obj[0] as usize;
                assert_eq!(obj, &[i as u8; 1000][..]);
                // Another page of the same file, and another file's object.
                assert_eq!(f.read(oids[(i + 20) % 40]).unwrap()[0], ((i + 20) % 40) as u8);
                assert_eq!(other.read(tile).unwrap().len(), 3000);
            }
            if oid.page == last_page && !inserted {
                // Writing the page being scanned needs its latch.
                f.insert(b"late").unwrap();
                inserted = true;
            }
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert!(inserted);
        assert_eq!(seen, 41);
        assert_eq!(f.count(), 42);
    }

    #[test]
    fn for_each_passes_callback_errors_through() {
        let f = file("k.vol");
        for i in 0..10u8 {
            f.insert(&[i]).unwrap();
        }
        let mut calls = 0;
        let r = f.for_each(|_, obj| {
            calls += 1;
            if obj[0] == 3 {
                Err(StorageError::Corrupt("stop"))
            } else {
                Ok(())
            }
        });
        assert!(matches!(r, Err(StorageError::Corrupt("stop"))));
        assert_eq!(calls, 4, "the scan stops at the first error");
    }

    #[test]
    fn meta_roundtrip_reopen() {
        let dir = std::env::temp_dir().join(format!("paradise-heap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join("h.vol")).unwrap());
        let pool = Arc::new(BufferPool::new(vol, 128));
        let f = HeapFile::create(pool.clone()).unwrap();
        let oid = f.insert(b"persisted").unwrap();
        let meta = f.meta();
        drop(f);
        let f2 = HeapFile::from_meta(pool, meta);
        assert_eq!(f2.read(oid).unwrap(), b"persisted");
        assert_eq!(f2.count(), 1);
        // New inserts after reopen still work (fresh extent).
        let oid2 = f2.insert(b"new").unwrap();
        assert_eq!(f2.read(oid2).unwrap(), b"new");
    }

    #[test]
    fn concurrent_inserts() {
        let dir = std::env::temp_dir().join(format!("paradise-heap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join("i.vol")).unwrap());
        let pool = Arc::new(BufferPool::new(vol, 256));
        let f = Arc::new(HeapFile::create(pool).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                (0..200).map(|i| f.insert(&[t, i as u8]).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(f.count(), 800);
        let unique: std::collections::HashSet<_> = all.iter().map(|o| (o.page, o.slot)).collect();
        assert_eq!(unique.len(), 800, "OIDs must be distinct");
    }
}
